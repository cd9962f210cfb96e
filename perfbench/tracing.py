"""Spans and counts around simatroid's public functions, from outside.

Only the traced run installs these wrappers; the plain run calls the
program untouched.  A name bound by ``from .x import f`` lives in every
module that imported it, so a function is replaced in each simatroid
module namespace that holds it, and a method on its class.

A span records (id, name, start, end, parent id, operation number).
Self time is a span's duration minus the time its direct child spans
cover; calls nest and run on one thread, so children never overlap.
A span times only the call of the wrapped function.  The wrapper's own
work around that call (opening and closing the span, and the hashing
behind the layer ratios) is counted as covered by a child in the
parent, so no layer's self time includes it.
Self times and counts are summed as spans close; the first ``SPAN_CAP``
spans are also kept and written out, so a long run cannot fill memory
with them.
"""

from __future__ import annotations

import json
import sys
import weakref
from functools import cached_property
from math import comb
from time import perf_counter

SPAN_CAP = 200_000

# (module, attribute or Class.attribute, layer name)
TARGETS = [
    ("instances", "parse_instance", "instances.parse_instance"),
    ("complexes", "HypercliqueComplex.facets", "complexes.facets"),
    ("complexes", "HypercliqueComplex.star", "complexes.star"),
    ("complexes", "HypercliqueComplex.is_face", "complexes.is_face"),
    ("elimination", "simplicial_faces", "elimination.simplicial_faces"),
    ("elimination", "find_dperfect_sequence", "elimination.find_dperfect_sequence"),
    ("elimination", "verify_dperfect", "elimination.verify_dperfect"),
    ("elimination", "check_superdense", "elimination.check_superdense"),
    ("elimination", "verify_superdense", "elimination.verify_superdense"),
    ("elimination", "check_supersolvable", "elimination.check_supersolvable"),
    ("matroid", "SimplicialMatroid.__init__", "matroid.init"),
    ("matroid", "SimplicialMatroid.rank_of", "matroid.rank_of"),
    ("matroid", "SimplicialMatroid.circuits_brute", "matroid.circuits_brute"),
    ("matroid", "matroid_circuits_exhaustive", "matroid.circuits_exhaustive"),
    ("matroid", "matroid_cocircuits_exhaustive", "matroid.cocircuits_exhaustive"),
    ("linalg", "ExactMatrix._rref", "linalg.rref"),
    ("linalg", "ExactMatrix.rank", "linalg.rref"),
    ("linalg", "ExactMatrix.rref", "linalg.rref"),
    ("linalg", "ExactMatrix.nullspace_basis", "linalg.rref"),
    ("linalg", "ExactMatrix.in_row_space", "linalg.rref"),
    ("linalg", "IncrementalRank.add", "linalg.incremental_rank.add"),
    ("linalg", "solve_columns", "linalg.solve_columns"),
    ("triangulate", "is_triangulable", "triangulate.is_triangulable"),
    ("triangulate", "circuit_vector", "triangulate.circuit_vector"),
    ("triangulate", "strong_decompose", "triangulate.strong_decompose"),
    ("triangulate", "verify_decomposition", "triangulate.verify_decomposition"),
    ("triangulate", "is_strongly_triangulable_brute", "triangulate.is_strongly_triangulable_brute"),
    ("certificates", "format_dperfect", "certificates.format"),
    ("certificates", "format_superdense", "certificates.format"),
    ("certificates", "format_decomposition", "certificates.format"),
    ("chains", "boundary", "chains.boundary"),
    ("chains", "boundary_matrix", "chains.boundary_matrix"),
]

# cheap and called often: counted, with no span
COUNT_ONLY = {"complexes.star", "complexes.is_face", "chains.boundary"}

# the layers reported as <name>.self_s
SELF_TIMES = tuple(dict.fromkeys(n for _, _, n in TARGETS if n not in COUNT_ONLY))
CALL_COUNTS = ("complexes.star", "complexes.is_face", "elimination.simplicial_faces",
               "elimination.verify_dperfect", "matroid.rank_of", "linalg.incremental_rank.add",
               "linalg.solve_columns", "chains.boundary")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self._stack: list[list] = []   # [span id, time covered by children]
        self._next_id = 0
        self.op_id = -1
        # layer ratios
        self.examined = self.returned = 0
        self.rank_distinct = 0
        self._rank_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.verify_distinct = 0
        self._verify_seen: set[int] = set()

    def new_round(self) -> None:
        self._verify_seen.clear()

    def operation(self, kind: str, run):
        """run wrapped in the root span of one operation."""
        def start_operation():
            self.op_id += 1
            return traced()
        traced = self.span(f"op.{kind}", run)
        return start_operation

    def span(self, name: str, fn, note=None):
        """fn wrapped so each call records one span called name; note, if
        given, is called with the arguments and the result afterwards."""
        stack = self._stack

        def traced(*args, **kwargs):
            entered = perf_counter()
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, start, end,
                                       stack[-1][0] if stack else -1, self.op_id))
                else:
                    self.dropped += 1
                if stack:
                    stack[-1][1] += perf_counter() - entered
            if note is not None:
                noted = perf_counter()
                note(args, result)
                if stack:
                    stack[-1][1] += perf_counter() - noted
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        def counting(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self.counted(name, fn)
        notes = {"elimination.simplicial_faces": self._note_yield,
                 "matroid.rank_of": self._note_rank_of,
                 "elimination.verify_dperfect": self._note_verify}
        return self.span(name, fn, notes.get(name))

    # what the layer ratios gather from each call
    def _note_yield(self, args, out):
        c = args[0]
        self.examined += comb(c.n, c.k - 1)
        self.returned += len(out)

    def _note_rank_of(self, args, _):
        m, subset = args
        seen = self._rank_seen.setdefault(m, set())
        key = hash(frozenset(subset))
        if key not in seen:
            seen.add(key)
            self.rank_distinct += 1

    def _note_verify(self, args, _):
        key = hash(args)
        if key not in self._verify_seen:
            self._verify_seen.add(key)
            self.verify_distinct += 1

    def install(self, package):
        """Wrap every target; returns a function that undoes it."""
        undo = []
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for mod_name, attr, name in TARGETS:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[member]
                if isinstance(original, cached_property):
                    wrapped = cached_property(self.wrap(name, original.func))
                    wrapped.__set_name__(owner, member)
                else:
                    wrapped = self.wrap(name, original)
                setattr(owner, member, wrapped)
                undo.append((owner, member, original))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))

        def restore():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return restore

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per round, as (value, unit)."""
        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{n}.self_s": (self.self_s.get(n, 0.0) / rounds, "s") for n in SELF_TIMES}
        out.update({f"{n}.calls": (self.calls.get(n, 0) / rounds, "count") for n in CALL_COUNTS})
        verify_calls = self.calls.get("elimination.verify_dperfect", 0)
        out["elimination.simplicial_faces.yield"] = (ratio(self.returned, self.examined), "ratio")
        out["elimination.verify_dperfect.repeat"] = (ratio(verify_calls, self.verify_distinct),
                                                     "ratio")
        out["matroid.rank_of.hit_ratio"] = (
            1 - ratio(self.rank_distinct, self.calls.get("matroid.rank_of", 0)), "ratio")
        return out

    def write(self, path) -> None:
        """One JSON line per kept span: id, name, start, end, parent id
        (-1 for none) and operation number."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

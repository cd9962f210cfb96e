"""The three workloads: inputs made from a seed, the operations run on
them, and the check of every answer.

An operation is either one in-process ``simatroid.cli.run_command`` call
with the instance on stdin, or one documented library call.  Its check
returns True for a correct answer and False for one of the two known
faults listed in README.md; any other answer raises ``CheckFailed``.
"""

from __future__ import annotations

import io
import random
import sys
from fractions import Fraction
from functools import cached_property, partial

import simatroid
from simatroid import cli

import checkers as C
from checkers import require

COMMANDS = ("analyze", "perfect", "superdense", "supersolvable", "triangulate",
            "decompose", "dual-check")
FIELD_TOKEN = {2: "2", 3: "3", 5: "5", None: "q"}
FIELD_NAME = {2: "GF(2)", 3: "GF(3)", 5: "GF(5)", None: "QQ"}
NO_PEEL = "error: instance has no complete simplicial peel; cannot decompose"
NOT_CIRCUIT = "error: not a circuit of this matroid"
MODULAR_CHAIN_GUARD = 10   # edges the k = 2 supersolvable search accepts


class Op:
    """One operation: kind is the CLI command or "lib.<function>"."""

    __slots__ = ("kind", "label", "run", "check")

    def __init__(self, kind, label, run, check):
        self.kind, self.label, self.run, self.check = kind, label, run, check


class Instance:
    """A generated instance and the facts the checks need, computed from
    the checkers on first use (only the first round's checks use them)."""

    def __init__(self, family, n, k, p, faces, apexes=None):
        self.family = family          # "random", "stacked", "full" or "prop54"
        self.n, self.k, self.p = n, k, p
        self.faces = frozenset(faces)
        self.apexes = apexes          # cone apexes of a stacked complex
        self.text = "\n".join([f"{n} {k}", f"field {FIELD_TOKEN[p]}"]
                              + [C.text(f) for f in C.lex(self.faces)]) + "\n"
        self.label = f"{family} n={n} k={k} {FIELD_NAME[p]}"

    @cached_property
    def rank(self) -> int:
        if self.family == "stacked":
            return C.stacked_rank(self.n, self.k)
        if self.family == "full":
            return C.full_rank(self.n, self.k)
        require(self.p == 2, "rank check needs GF(2) for random instances")
        r = C.gf2_rank(C.boundary_columns_gf2(self.faces))
        if self.k == 2:
            require(r == C.graph_rank(self.n, self.faces), "checkers disagree on graph rank")
        return r

    @cached_property
    def chordal(self) -> bool:
        return C.is_chordal(self.n, self.faces)

    @cached_property
    def has_peel(self) -> bool:
        if self.family in ("stacked", "full"):
            # stacked by construction; full complexes have one (brute force
            # confirms it for n <= 7 in test_checkers); certificates are checked
            return True
        if self.family == "prop54":
            return False
        return self.chordal if self.k == 2 else C.has_peel(self.n, self.k, self.faces)

    @cached_property
    def facets(self) -> list[int]:
        if self.family == "full":
            return [(1 << self.n) - 1]
        if self.family == "stacked":
            return C.stacked_facets(self.n, self.k, self.apexes, self.faces)
        return C.SmallComplex(self.n, self.k, self.faces).facets()

    @cached_property
    def simplicial(self) -> list[int]:
        if self.family == "full":
            return C.k_sets(self.n, self.k - 1)
        if self.family == "stacked":
            return C.stacked_simplicial(self.n, self.k, self.apexes)
        return C.SmallComplex(self.n, self.k, self.faces).simplicial()

    @cached_property
    def triangulable(self) -> bool:
        if self.family in ("stacked", "full", "prop54"):
            return True     # a peel, or Prop. 5.4's construction, gives it
        return C.is_triangulable(self.faces, self.k, self.n, self.p)


# -- generators ------------------------------------------------------------

def random_instance(rng, n, k, count, p=2) -> Instance:
    """count k-faces on n vertices, drawn without replacement."""
    return Instance("random", n, k, p, rng.sample(C.k_sets(n, k), count))


def stacked_instance(rng, n, k, p) -> Instance:
    """Start from one k-face; cone each new vertex over a random earlier
    k-face; relabel the vertices at random.  A peel exists by construction."""
    faces = [(1 << k) - 1]
    apexes = []
    for v in range(k, n):
        base = rng.choice(faces)
        bit = 1 << v
        faces.extend((base & ~(1 << i)) | bit for i in range(n) if base >> i & 1)
        apexes.append(base | bit)
    perm = list(range(n))
    rng.shuffle(perm)

    def relabel(m):
        return C.mask_of(perm[i] + 1 for i in range(n) if m >> i & 1)

    return Instance("stacked", n, k, p, map(relabel, faces), [relabel(a) for a in apexes])


def full_instance(n, k, p) -> Instance:
    return Instance("full", n, k, p, C.k_sets(n, k))


def prop54_instance(n, k, p) -> Instance:
    """Prop. 5.4: the k-subsets of two overlapping (k+1)-sets, each coned
    to vertex n, minus the k-set the two share.  Triangulable, and not
    strongly so."""
    faces = set()
    for base in (set(range(1, k + 2)), set(range(2, k + 3))):
        for group in [base] + [(base - {i}) | {n} for i in base]:
            faces.update(C.subsets_of_size(C.mask_of(group), k))
    faces.discard(C.mask_of(range(2, k + 2)))
    return Instance("prop54", n, k, p, faces)


# -- reports ---------------------------------------------------------------

def lines_by_key(report: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in report.splitlines():
        key, _, rest = line.partition(" ")
        out.setdefault(key, []).append(rest)
    return out


def one(lines, key) -> str:
    got = lines.get(key, [])
    require(len(got) == 1, f"report has {len(got)} '{key}' lines")
    return got[0]


def face_list(chunk: str) -> list[int]:
    return [C.mask_of(map(int, part.split())) for part in chunk.split(",") if part.strip()]


def check_head(inst: Instance, lines) -> None:
    require(one(lines, "n") == str(inst.n) and one(lines, "k") == str(inst.k)
            and one(lines, "field") == FIELD_NAME[inst.p]
            and one(lines, "faces") == str(len(inst.faces)), "report header is wrong")


def verdict(lines, key) -> str:
    value = one(lines, key)
    require(value in ("true", "false", "inconclusive"), f"bad {key} value {value!r}")
    return value


def decided(result, inst, key) -> bool:
    code, report = result
    lines = lines_by_key(report)
    require(code == 0, f"{key}: exit {code}: {report.strip()[:200]}")
    check_head(inst, lines)
    value = verdict(lines, key)
    require(value != "inconclusive", f"{key} inconclusive")
    return value == "true"


# -- checks per command ------------------------------------------------------

def check_analyze(inst, result):
    code, report = result
    require(code == 0, f"analyze exit {code}")
    lines = lines_by_key(report)
    check_head(inst, lines)
    require(one(lines, "rank") == str(inst.rank), f"rank {one(lines, 'rank')} != {inst.rank}")
    require(one(lines, "nullity") == str(len(inst.faces) - inst.rank), "nullity is wrong")
    facets = [C.mask_of(map(int, t.split())) for t in lines.get("facet", [])]
    require(one(lines, "facets") == str(len(facets)) and facets == inst.facets, "facets are wrong")
    simp = [C.mask_of(map(int, t.split())) for t in lines.get("simplicial", [])]
    require(one(lines, "simplicial-faces") == str(len(simp)) and simp == inst.simplicial,
            "simplicial faces are wrong")
    return True


def parse_peel(lines):
    peel = []
    for rest in lines.get("peel", []):
        head, sep, tail = rest.partition(" : cocircuit ")
        require(bool(sep), f"bad peel line {rest!r}")
        peel.append((C.mask_of(map(int, head.split())), face_list(tail)))
    return peel


def check_perfect(inst, result):
    has = decided(result, inst, "d-perfect")
    require(has == inst.has_peel, f"d-perfect {has}, expected {inst.has_peel}")
    if has:
        C.check_peel(inst.faces, inst.rank, parse_peel(lines_by_key(result[1])))
    return True


def check_superdense(inst, result):
    has = decided(result, inst, "superdense")
    require(has == inst.has_peel, f"superdense {has}, but peel exists is {inst.has_peel}")
    if has:
        steps = []
        for rest in lines_by_key(result[1]).get("witness", []):
            head, sep, tail = rest.partition(" : flat")
            require(bool(sep), f"bad witness line {rest!r}")
            steps.append((C.mask_of(map(int, head.split())), frozenset(face_list(tail))))
        C.check_flag(inst.faces, inst.rank, steps)
    return True


def check_supersolvable(inst, result):
    code, report = result
    if inst.k == 2 and code == 2 and len(inst.faces) > MODULAR_CHAIN_GUARD:
        # known fault: Stanley's theorem decides graphs by chordality
        require(verdict(lines_by_key(report), "supersolvable") == "inconclusive", "bad exit 2")
        return False
    got = decided(result, inst, "supersolvable")
    want = inst.chordal if inst.k == 2 else inst.rank == len(inst.faces)
    require(got == want, f"supersolvable {got}, expected {want}")
    return True


def check_triangulate(inst, result):
    code, report = result
    lines = lines_by_key(report)
    if code == 2 and inst.family == "full" and inst.has_peel:
        # known fault: a peel already proves strong triangulability
        require(verdict(lines, "triangulable") == "true"
                and verdict(lines, "strongly-triangulable") == "inconclusive", "bad exit 2")
        return False
    tri = decided(result, inst, "triangulable")
    strong = decided(result, inst, "strongly-triangulable")
    require(tri == inst.triangulable, f"triangulable {tri}, expected {inst.triangulable}")
    require(tri or not strong, "strongly triangulable but not triangulable")
    if inst.family == "prop54":
        require(not strong, "Prop. 5.4 complexes are not strongly triangulable")
    elif inst.k == 2:
        # a chordless cycle has no triangle inside its own vertices
        require(strong == inst.chordal, f"strongly-triangulable {strong} on a graph with "
                f"chordal={inst.chordal}")
    elif inst.has_peel:
        require(strong, "a complex with a peel must be strongly triangulable")
    return True


def check_decompose(inst, circuit, is_circuit, result):
    code, report = result
    if not inst.has_peel:
        require((code, report.strip()) == (1, NO_PEEL), "decompose without a peel must refuse")
        return True
    if not is_circuit:
        require((code, report.strip()) == (1, NOT_CIRCUIT), "decompose of a non-circuit must refuse")
        return True
    require(code == 0, f"decompose exit {code}: {report.strip()[:200]}")
    lines = lines_by_key(report)
    check_head(inst, lines)
    require(sorted(face_list(one(lines, "circuit"))) == sorted(circuit), "circuit line is wrong")
    number = int if inst.p else Fraction

    def entries(key):
        for rest in lines.get(key, []):
            coeff, _, face = rest.partition(" ")
            yield C.mask_of(map(int, face.split())), number(coeff)

    target = dict(entries("target"))
    terms = list(entries("term"))
    require(set(target) == set(circuit), "target support is not the circuit")
    C.check_decomposition(inst.faces, inst.k, inst.p, target, terms)
    return True


def check_dual(result):
    code, report = result
    require(code == 0 and one(lines_by_key(report), "duality") == "true",
            f"dual-check: {report.strip()[:200]}")
    return True


# -- operations --------------------------------------------------------------

def cli_op(cmd, label, argv, stdin_text, check) -> Op:
    def run():
        sys.stdin = io.StringIO(stdin_text)
        return cli.run_command(argv)
    return Op(cmd, label, run, check)


def instance_ops(inst, commands, circuit=None) -> list[Op]:
    ops = []
    for cmd in commands:
        argv = [cmd]
        if cmd == "decompose":
            is_circuit = circuit is not None
            faces = circuit if is_circuit else C.lex(inst.faces)[:1]
            argv += ["--circuit", " , ".join(C.text(f) for f in faces)]
            check = partial(check_decompose, inst, faces, is_circuit)
        else:
            check = partial(CHECKS[cmd], inst)
        ops.append(cli_op(cmd, f"{cmd} {inst.label}", argv, inst.text, check))
    return ops


CHECKS = {"analyze": check_analyze, "perfect": check_perfect, "superdense": check_superdense,
          "supersolvable": check_supersolvable, "triangulate": check_triangulate}


def dual_op(n, k, p) -> Op:
    return cli_op("dual-check", f"dual-check n={n} k={k} {FIELD_NAME[p]}",
                  ["dual-check", "--n", str(n), "--k", str(k), "--field", FIELD_TOKEN[p]],
                  "", check_dual)


def apex_circuit(inst) -> list[int]:
    """The boundary of the lex-first (k+1)-face: always a circuit."""
    apex = C.lex(C.apexes_of(inst.faces, inst.k, inst.n))[0]
    return C.subsets_of_size(apex, inst.k)


def gf2_circuit(inst) -> list[int] | None:
    """The fundamental circuit of the first dependent k-face, over GF(2)."""
    faces = C.lex(inst.faces)
    found = C.gf2_first_circuit(C.boundary_columns_gf2(faces))
    return None if found is None else [faces[i] for i in found]


def parse_all(instances) -> None:
    """The program's parser reads every generated instance once."""
    for inst in instances:
        parsed = simatroid.parse_instance(inst.text)
        require(frozenset(parsed.faces) == inst.faces, f"parser changed {inst.label}")


# -- workloads ---------------------------------------------------------------

FAN7 = [C.mask_of((1, v)) for v in range(2, 8)] + [C.mask_of((v, v + 1)) for v in range(2, 7)]
CORPUS_REPEATS = 3


def corpus(seed: int) -> list[Op]:
    """Small random instances over GF(2); every command on every one.

    Graphs on 4-8 vertices take each edge count from n - 1 to n + 5, so
    every round holds the same number of graphs with more than 10 edges
    (the supersolvable fault), whatever the seed.  k = 3 complexes on 5-7
    vertices take a fixed range of face counts for the same reason: the
    costly questions grow with the number of faces.
    """
    rng = random.Random(f"corpus:{seed}")
    instances = [Instance("random", 7, 2, 2, FAN7)]
    for _ in range(CORPUS_REPEATS):
        for n in range(4, 9):
            for m in range(n - 1, min(n * (n - 1) // 2, n + 5) + 1):
                instances.append(random_instance(rng, n, 2, m))
        for n, counts in ((5, range(4, 10)), (6, range(6, 15)), (7, range(8, 19))):
            for count in counts:
                instances.append(random_instance(rng, n, 3, count))
    fan_qq = Instance("random", 7, 2, None, FAN7)
    parse_all(instances + [fan_qq])
    ops = []
    for inst in instances:
        ops += instance_ops(inst, COMMANDS[:-1], gf2_circuit(inst))
    ops += [dual_op(n, k, 2) for n, k in ((5, 2), (5, 3), (6, 2), (6, 4))]
    # one exact-rational strong check, so the rational circuit search is timed here too
    ops += instance_ops(fan_qq, ("triangulate",))
    return ops


def stacked(seed: int) -> list[Op]:
    """Deep instances with a peel by construction, over four fields."""
    rng = random.Random(f"stacked:{seed}")
    big = [stacked_instance(rng, n, k, p)
           for n, k, p in ((64, 2, 2), (32, 3, 2), (32, 2, 3), (16, 3, 5), (12, 4, 5),
                           (10, 3, None))]
    small = stacked_instance(rng, 6, 3, None)
    libs = [stacked_instance(rng, n, 3, p) for n, p in ((13, 3), (13, 3), (12, 5), (12, 5))]
    parse_all(big + [small] + libs)
    ops = []
    for inst in big:
        ops += instance_ops(inst, ("perfect", "analyze", "superdense"))
    # one call of each remaining command, so every layer is timed here too
    ops += instance_ops(big[3], ("supersolvable",))
    ops += instance_ops(small, ("triangulate",))
    ops += instance_ops(small, ("decompose",), apex_circuit(small))
    ops.append(dual_op(5, 2, 3))
    for inst in libs:
        ops += library_ops(rng, inst, 4)
    return ops


def library_ops(rng, inst, count) -> list[Op]:
    """Peel once with find_dperfect_sequence, then decompose count seeded
    dependencies (random combinations of cone-apex boundaries) along it."""
    field = simatroid.QQ if inst.p is None else simatroid.GF(inst.p)
    c = simatroid.instance_complex(simatroid.parse_instance(inst.text))
    state = {}

    def find():
        state["m"] = simatroid.SimplicialMatroid(c, field)
        state["peel"] = simatroid.find_dperfect_sequence(c, field)
        return state["peel"]

    def check_find(cert):
        C.check_peel(inst.faces, inst.rank, list(zip(cert.sequence, cert.cocircuits)))
        return True

    ops = [Op("lib.find_dperfect_sequence", f"find_dperfect_sequence {inst.label}",
              find, check_find)]
    for i in range(count):
        coeffs: dict = {}
        for apex in rng.sample(inst.apexes, 2 + i % 2):
            a = rng.choice((1, 2, -1, -2)) if inst.p is None else rng.randrange(1, inst.p)
            C.add_scaled(coeffs, C.boundary(apex, inst.p), a, inst.p)
        target = simatroid.ChainVector(field, coeffs)

        def check(cert, coeffs=coeffs):
            require(dict(cert.target.items_lex()) == coeffs, "target changed")
            C.check_decomposition(inst.faces, inst.k, inst.p, coeffs, cert.terms)
            return True

        ops.append(Op("lib.strong_decompose", f"strong_decompose #{i} {inst.label}",
                      lambda target=target: simatroid.strong_decompose(
                          state["m"], target, state["peel"]), check))
    return ops


def exhaustive(seed: int) -> list[Op]:
    """Questions that are exponential in themselves."""
    rng = random.Random(f"exhaustive:{seed}")
    full = [full_instance(n, 2, 2) for n in (11, 12, 13)]
    full += [full_instance(n, 3, 3) for n in (10, 11, 12)]
    fault = full_instance(12, 3, 2)
    tiny = full_instance(6, 3, 5)
    randoms = [random_instance(rng, n, 3, count, p)
               for p in (2, 3) for n, counts in ((6, (8, 10, 12)), (7, (10, 13, 16)))
               for count in counts]
    props = [prop54_instance(n, k, p)
             for n, k in ((6, 2), (7, 2), (7, 3), (8, 3), (9, 3), (10, 3), (8, 4))
             for p in (2, 3)]
    props += [prop54_instance(n, 4, 2) for n in (9, 10)]
    props += [prop54_instance(n, 3, 5) for n in (7, 8)]
    props += [prop54_instance(n, 2, None) for n in (6, 7)]
    parse_all(full + [fault, tiny] + randoms + props)
    ops = []
    for inst in full:
        ops += instance_ops(inst, ("analyze",))
    ops += instance_ops(fault, ("perfect", "triangulate"))
    for inst in randoms + props:
        ops += instance_ops(inst, ("triangulate",))
    ops += [dual_op(n, k, p) for n, k, p in ((6, 3, 3), (7, 5, 2), (7, 2, 5), (5, 3, 5))]
    # one call of each remaining command, so every layer is timed here too
    ops += instance_ops(tiny, ("superdense", "supersolvable"))
    ops += instance_ops(tiny, ("decompose",), apex_circuit(tiny))
    return ops


WORKLOADS = {"corpus": corpus, "stacked": stacked, "exhaustive": exhaustive}

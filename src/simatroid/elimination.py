"""Simplicial (k-1)-faces and elimination-style structure certificates.

A (k-1)-face is simplicial when exactly one facet strictly contains it.
Peeling the star of a simplicial face removes a cocircuit of the
matroid, so a complete peel sequence is a certified analogue of a
perfect elimination ordering; the superdense chain is the matching
lattice object, read off the residuals of a peel.  One step verifier
checks both, each cocircuit by rank rather than by facet arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .complexes import (HypercliqueComplex, all_faces, face_sort_key, submasks_of_size,
                        vertices)
from .errors import CertificateError
from .fields import GF2, Field
from .linalg import IncrementalRank
from .matroid import SimplicialMatroid


def is_simplicial_face(c: HypercliqueComplex, v: int) -> bool:
    """True iff exactly one facet strictly contains the (k-1)-set v.

    Decided without enumerating facets: v is simplicial iff the union U
    of its star is a face; a (k-1)-set with an empty star is a facet in
    its own right, hence never simplicial.  Such a U is always a facet: a
    vertex x that extended it would make v | {x} a k-face of the star, so
    x would already lie in U.
    """
    if v.bit_count() != c.k - 1:
        raise ValueError("simpliciality is defined for (k-1)-element faces")
    if v & ~((1 << c.n) - 1):
        raise ValueError("vertex out of range")
    st = c.star(v)
    if not st:
        return False
    union = v
    for f in st:
        union |= f
    return c.is_face(union)


def simplicial_faces(c: HypercliqueComplex) -> list[int]:
    return [v for v in all_faces(c.n, c.k - 1) if is_simplicial_face(c, v)]


@dataclass(frozen=True)
class DPerfectCertificate:
    """A complete simplicial peel: sequence of (k-1)-faces plus the star
    each one removed.  The removed stars partition the k-faces and each
    is a cocircuit of the residual matroid at its step."""

    sequence: tuple[int, ...]
    cocircuits: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.sequence)


def _verify_peel(m: SimplicialMatroid, steps: Iterable[tuple[int, frozenset[int]]]) -> None:
    """Check that the (face v, claimed star S) steps are a complete
    simplicial peel of m, each S a cocircuit of its residual.

    One pass from the last step to the first, adding each S back to H,
    the faces restored so far, on one elimination kernel.  At each step:
    (a) v is a (k-1)-set; S is non-empty, inside the ground set, and every
    member contains v; no face of H contains v (by counts kept here), so S
    is disjoint from H and is the star of v in H | S.  (b) Every k-subset
    of the union of v and S lies in H | S, so v is simplicial there.
    (c) Every member of S lies outside span(H) and S raises the rank by
    exactly one: H is a flat of rank one less in H | S, that is S is a
    cocircuit.  (d) At the end H is the ground set, which makes each
    H | S the residual of the peel read forward.

    (c) cannot fail once (a) and (b) hold: row v is nonzero in every
    member of S and in no face of H, and the boundary of each (k+1)-face
    v | {x, y} inside the union ties v | {y} to v | {x} and H.  It stays
    as the check by rank, apart from the facet arithmetic of (a) and (b)."""
    c = m.complex
    k = c.k
    ground = m._ground_set
    cols = m._cols
    inc = IncrementalRank(m.field)
    restored: set[int] = set()
    above: dict[int, int] = {}      # (k-1)-set -> faces of H containing it
    steps = list(steps)
    for step in range(len(steps), 0, -1):
        v, claimed = steps[step - 1]
        if v.bit_count() != k - 1:
            raise CertificateError(f"step {step}: entry is not a (k-1)-element face")
        if not claimed <= ground or any(f & v != v for f in claimed) or above.get(v):
            raise CertificateError(f"step {step}: recorded cocircuit does not match the star")
        union = v
        for f in claimed:
            union |= f
        if not claimed or any(t not in restored and t not in claimed
                              for t in submasks_of_size(union, k)):
            raise CertificateError(
                f"step {step}: {vertices(v)} is not simplicial in the residual complex")
        before = inc.rank
        outside = all(inc.reduce(cols[f]) for f in claimed)
        inc.extend([cols[f] for f in claimed])
        if not outside or inc.rank != before + 1:
            raise CertificateError(f"step {step}: star is not a cocircuit of the residual")
        restored |= claimed
        for f in claimed:
            for u in submasks_of_size(f, k - 1):
                above[u] = above.get(u, 0) + 1
    if restored != ground:
        raise CertificateError("peel did not exhaust the k-faces")


def verify_dperfect(c: HypercliqueComplex, field: Field, cert: DPerfectCertificate) -> None:
    _verify_dperfect(SimplicialMatroid(c, field), cert)


def _verify_dperfect(m: SimplicialMatroid, cert: DPerfectCertificate) -> None:
    """verify_dperfect on a matroid the caller holds, reusing its rank cache.
    A peel it accepts is recorded on m and not checked again there; one it
    rejects is not recorded.  The record holds the steps as tuples, so a
    certificate built from lists is recorded too."""
    key = (tuple(cert.sequence), tuple(map(frozenset, cert.cocircuits)))
    if key in m._verified_peels:
        return
    r = m.rank
    if len(cert.sequence) != r or len(cert.cocircuits) != r:
        raise CertificateError(f"sequence length {len(cert.sequence)} != rank {r}")
    _verify_peel(m, zip(*key))
    m._verified_peels.add(key)


class _ResidualIndex:
    """A complex being peeled, indexed for the peel search and updated in
    place: the live k-faces, the live star of each (k-1)-set, and the set
    of simplicial (k-1)-sets, those whose star is non-empty with a face as
    its union.

    Peeling v with star S can change the status only of the (k-1)-subsets
    of the facet U = v | union(S), so only those are rechecked, and undo
    puts their old status back.  Why only those: a (k-1)-set whose star
    lost a face lies in that face, inside U.  A simplicial u whose union
    U(u) lost a face g of S has v inside g inside U(u); U(u) is a face,
    so v | {x} is a live face, in S, for every x in U(u), and U(u) lies
    inside U.  Removing faces never makes a union a face, so no other
    (k-1)-set becomes simplicial.
    """

    def __init__(self, c: HypercliqueComplex):
        self.k = k = c.k
        self.live = set(c.faces_k)
        self._ridges = {f: tuple(submasks_of_size(f, k - 1)) for f in self.live}
        self.star: dict[int, set[int]] = {}
        for f, rs in self._ridges.items():
            for u in rs:
                self.star.setdefault(u, set()).add(f)
        self._key = {u: face_sort_key(u) for u in self.star}
        self._subsets = cache(lambda mask, r: tuple(submasks_of_size(mask, r)))
        self.simplicial = {u for u in self.star if self._is_simplicial(u)}
        self._trail: list[tuple[frozenset[int], tuple[int, ...], set[int]]] = []

    def _is_simplicial(self, u: int) -> bool:
        st = self.star[u]
        if not st:
            return False
        union = u
        for f in st:
            union |= f
        return self.live.issuperset(self._subsets(union, self.k))

    def candidates(self) -> list[int]:
        """The simplicial (k-1)-sets in lexicographic order."""
        return sorted(self.simplicial, key=self._key.__getitem__)

    def peel(self, v: int) -> frozenset[int]:
        """Remove the star of the simplicial (k-1)-set v and return it."""
        st = frozenset(self.star[v])
        union = v
        for f in st:
            union |= f
        self.live.difference_update(st)
        for f in st:
            for u in self._ridges[f]:
                self.star[u].discard(f)
        touched = self._subsets(union, self.k - 1)
        self._trail.append((st, touched, self.simplicial.intersection(touched)))
        self.simplicial.difference_update(touched)
        self.simplicial.update(u for u in touched if self._is_simplicial(u))
        return st

    def undo(self) -> None:
        """Put back the star the latest peel removed."""
        st, touched, saved = self._trail.pop()
        self.live.update(st)
        for f in st:
            for u in self._ridges[f]:
                self.star[u].add(f)
        self.simplicial.difference_update(touched)
        self.simplicial.update(saved)


def _peel_search(c: HypercliqueComplex) -> list[tuple[int, frozenset[int]]] | None:
    """(face, star) steps of the lex-first complete simplicial peel, or None.

    For k = 2 one greedy dive decides: eliminating any simplicial vertex
    of a chordal graph leaves a chordal graph, so the greedy dive cannot
    dead-end unless every dive does.  For k > 2 the search backtracks,
    remembering the residuals that have no complete peel.  Candidates are
    tried in lexicographic order, as simplicial_faces lists them; the
    residual is a _ResidualIndex, peeled and restored in place.
    """
    index = _ResidualIndex(c)
    failed: set[frozenset[int]] = set()
    acc: list[tuple[int, frozenset[int]]] = []

    def dfs() -> bool:
        if not index.live:
            return True
        residual = frozenset(index.live)
        if residual in failed:
            return False
        for v in index.candidates():
            acc.append((v, index.peel(v)))
            if dfs():
                return True
            acc.pop()
            index.undo()
            if c.k == 2:
                break
        failed.add(residual)
        return False

    return acc if dfs() else None


def _peel(m: SimplicialMatroid) -> DPerfectCertificate | None:
    """The lex-first complete simplicial peel of m's complex, verified
    against m, or None when none exists."""
    steps = _peel_search(m.complex)
    if steps is None:
        return None
    cert = DPerfectCertificate(sequence=tuple(v for v, _ in steps),
                               cocircuits=tuple(st for _, st in steps))
    _verify_dperfect(m, cert)
    return cert


def find_dperfect_sequence(c: HypercliqueComplex,
                           field: Field = GF2) -> DPerfectCertificate | None:
    """A verified complete simplicial peel, or None when none exists."""
    return _peel(SimplicialMatroid(c, field))


def check_basic_linear_sequence(c: HypercliqueComplex, field: Field,
                                seq: Sequence[int]) -> bool:
    """Does peeling the residual stars of seq remove one cocircuit per step
    and exhaust a ground set of rank len(seq)?"""
    m = SimplicialMatroid(c, field)
    if len(seq) != m.rank:
        return False
    residual = frozenset(m.ground)
    for v in seq:
        if v.bit_count() != c.k - 1:
            raise ValueError("sequence entries must be (k-1)-element faces")
        st = frozenset(f for f in residual if f & v == v)
        if not st or not m.is_cocircuit_within(residual, st):
            return False
        residual = residual - st
    assert not residual, "rank bookkeeping broke: peels exhausted the rank but not the ground set"
    return True


def check_chordal_graph(edges: Iterable, n: int) -> bool:
    """Perfect-elimination test on plain adjacency sets; no matroid machinery.

    edges may be vertex pairs or 2-element masks.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for e in edges:
        a, b = vertices(e) if isinstance(e, int) else tuple(e)
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise ValueError(f"bad edge ({a}, {b})")
        adj[a].add(b)
        adj[b].add(a)
    active = set(range(1, n + 1))
    while active:
        pick = None
        for v in sorted(active):
            nb = adj[v] & active
            if all(y in adj[x] for x in nb for y in nb if x < y):
                pick = v
                break
        if pick is None:
            return False
        active.remove(pick)
    return True


@dataclass(frozen=True)
class SuperdenseCertificate:
    """Maximal chain of flats, ascending from empty to the full ground set,
    with the simplicial witness that makes each step a dense hyperplane
    of the restriction above it."""

    chain: tuple[frozenset[int], ...]
    witnesses: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.witnesses)


def verify_superdense(m: SimplicialMatroid, cert: SuperdenseCertificate) -> None:
    """Check the chain's shape, then walk it down as a peel: step i removes
    chain[i+1] - chain[i], the witness's star, a cocircuit of chain[i+1]."""
    r = m.rank
    if len(cert.chain) != r + 1 or len(cert.witnesses) != r:
        raise CertificateError(f"chain length {len(cert.chain)} != rank + 1 = {r + 1}")
    if cert.chain[0] != frozenset():
        raise CertificateError("chain must start at the empty flat")
    if cert.chain[-1] != frozenset(m.ground):
        raise CertificateError("chain must end at the full ground set")
    for i in range(r):
        if not cert.chain[i] < cert.chain[i + 1]:
            raise CertificateError(f"step {i + 1}: chain is not strictly increasing")
    _verify_peel(m, ((cert.witnesses[i], cert.chain[i + 1] - cert.chain[i])
                     for i in reversed(range(r))))


def check_superdense(m: SimplicialMatroid) -> SuperdenseCertificate | None:
    """A maximal chain of relatively dense flats, from the residuals of a
    complete simplicial peel read bottom up (the paper's analogue of
    Stanley's theorem: a peel exists iff such a chain does).  Every step
    is checked by rank in verify_superdense.  None is definitive.
    """
    steps = _peel_search(m.complex)
    if steps is None:
        return None
    chain = [frozenset(m.ground)]
    for _, st in steps:
        chain.append(chain[-1] - st)
    cert = SuperdenseCertificate(chain=tuple(reversed(chain)),
                                 witnesses=tuple(v for v, _ in reversed(steps)))
    verify_superdense(m, cert)
    return cert


def check_supersolvable(m: SimplicialMatroid) -> bool:
    """For k > 2 a matroid here is supersolvable iff it has no circuits, so
    the answer is a rank comparison.  For k = 2 the matroid is graphic, and
    a graph's matroid is supersolvable iff the graph is chordal (Stanley,
    "Supersolvable lattices", 1972), that is iff it has a complete
    simplicial peel (Dirac); the peel search decides that, and the peel
    it finds is verified against m."""
    if m.complex.k > 2:
        return m.rank == len(m.ground)
    return _peel(m) is not None

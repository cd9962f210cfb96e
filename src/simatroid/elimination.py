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
from typing import Iterable, Sequence

from .complexes import HypercliqueComplex, all_faces, vertices
from .errors import CertificateError
from .fields import GF2, Field
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
    """Walk the (face, claimed star) steps of a peel down from the ground
    set: each face must be a simplicial (k-1)-face of the residual, the
    claim its star there, and the star a cocircuit of the residual by
    rank.  The steps must exhaust the k-faces."""
    c = m.complex
    residual = frozenset(m.ground)
    for step, (v, claimed) in enumerate(steps, start=1):
        if v.bit_count() != c.k - 1:
            raise CertificateError(f"step {step}: entry is not a (k-1)-element face")
        comp = HypercliqueComplex(c.n, c.k, residual)
        if not is_simplicial_face(comp, v):
            raise CertificateError(
                f"step {step}: {vertices(v)} is not simplicial in the residual complex")
        st = comp.star(v)
        if st != claimed:
            raise CertificateError(f"step {step}: recorded cocircuit does not match the star")
        if not m.is_cocircuit_within(residual, st):
            raise CertificateError(f"step {step}: star is not a cocircuit of the residual")
        residual = residual - st
    if residual:
        raise CertificateError("peel did not exhaust the k-faces")


def verify_dperfect(c: HypercliqueComplex, field: Field, cert: DPerfectCertificate) -> None:
    _verify_dperfect(SimplicialMatroid(c, field), cert)


def _verify_dperfect(m: SimplicialMatroid, cert: DPerfectCertificate) -> None:
    """verify_dperfect on a matroid the caller holds, reusing its rank cache."""
    r = m.rank
    if len(cert.sequence) != r or len(cert.cocircuits) != r:
        raise CertificateError(f"sequence length {len(cert.sequence)} != rank {r}")
    _verify_peel(m, zip(cert.sequence, cert.cocircuits))


def _peel_search(c: HypercliqueComplex) -> list[tuple[int, frozenset[int]]] | None:
    """(face, star) steps of the lex-first complete simplicial peel, or None.

    For k = 2 one greedy dive decides: eliminating any simplicial vertex
    of a chordal graph leaves a chordal graph, so the greedy dive cannot
    dead-end unless every dive does.  For k > 2 the search backtracks,
    remembering the residuals that have no complete peel.
    """
    n, k = c.n, c.k
    failed: set[frozenset[int]] = set()

    def dfs(faces: frozenset[int], acc: list) -> list | None:
        if not faces:
            return acc
        if faces in failed:
            return None
        comp = HypercliqueComplex(n, k, faces)
        for v in simplicial_faces(comp):
            st = comp.star(v)
            result = dfs(faces - st, acc + [(v, st)])
            if result is not None:
                return result
            if k == 2:
                break
        failed.add(faces)
        return None

    return dfs(frozenset(c.faces_k), [])


def _peel_certificate(c: HypercliqueComplex) -> DPerfectCertificate | None:
    """The peel search's steps as a certificate, not yet verified."""
    steps = _peel_search(c)
    if steps is None:
        return None
    return DPerfectCertificate(sequence=tuple(v for v, _ in steps),
                               cocircuits=tuple(st for _, st in steps))


def find_dperfect_sequence(c: HypercliqueComplex,
                           field: Field = GF2) -> DPerfectCertificate | None:
    """A verified complete simplicial peel, or None when none exists."""
    cert = _peel_certificate(c)
    if cert is not None:
        verify_dperfect(c, field, cert)
    return cert


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
    steps = _peel_search(m.complex)
    if steps is not None:
        _verify_peel(m, steps)
    return steps is not None

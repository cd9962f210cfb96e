"""The linear matroid of boundary columns of a complex's k-faces.

Ground set: the k-faces in lexicographic order.  Their boundary columns
are built once, on first use, sparse over the (k-1)-faces that occur,
and every rank, circuit and cocircuit question is answered by the
elimination kernel of linalg on those columns.  Rank queries are cached
per subset.  Restriction to a subset of the ground set is just a rank
query on that subset, so every "residual matroid" question below is
phrased through rank_of.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Sequence

from .chains import ChainVector, boundary, boundary_columns
from .complexes import HypercliqueComplex, face_sort_key, full_complex, sorted_faces, vertices
from .errors import GuardExceeded
from .fields import Field, Scalar
from .linalg import (IncrementalRank, _bit_indices, column_relations, combine, dense_column,
                     echelon_rows, sparse_column)

DEFAULT_BRUTE_GROUND = 22
DEFAULT_SPAN_LIMIT = 1 << 22
DEFAULT_DUALITY_SPAN = 1 << 16


@dataclass(frozen=True)
class SmallCircuit:
    """Boundary of a (k+1)-face: its support is always a (k+1)-element circuit."""

    apex: int
    members: frozenset[int]
    vector: ChainVector


class SimplicialMatroid:
    def __init__(self, complex: HypercliqueComplex, field: Field):
        self.complex = complex
        self.field = field
        self.ground: tuple[int, ...] = tuple(sorted_faces(complex.faces_k))
        self._ground_set = frozenset(self.ground)
        self._rank_cache: dict[frozenset[int], int] = {}

    def __repr__(self) -> str:
        return f"SimplicialMatroid({self.complex!r}, {self.field})"

    @cached_property
    def _cols(self) -> dict:
        """Boundary column of each k-face, built on first use."""
        _, cols = boundary_columns(self.complex, self.field, self.ground)
        return dict(zip(self.ground, cols))

    @property
    def rank(self) -> int:
        return self.rank_of(self.ground)

    def _check_subset(self, subset: Iterable[int]) -> frozenset[int]:
        fs = frozenset(subset)
        if not fs <= self._ground_set:
            bad = next(iter(fs - self._ground_set))
            raise ValueError(f"{vertices(bad)} is not in the ground set")
        return fs

    def rank_of(self, subset: Iterable[int]) -> int:
        fs = self._check_subset(subset)
        cached = self._rank_cache.get(fs)
        if cached is not None:
            return cached
        cols = self._cols
        inc = IncrementalRank(self.field)
        inc.extend([cols[f] for f in sorted(fs)])
        r = inc.rank
        self._rank_cache[fs] = r
        return r

    def is_cocircuit(self, candidate: Iterable[int]) -> bool:
        return self.is_cocircuit_within(self._ground_set, candidate)

    def is_cocircuit_within(self, ground_subset: Iterable[int], candidate: Iterable[int]) -> bool:
        """Is candidate a cocircuit of the restriction to ground_subset?

        Characterization used: the complement of a cocircuit inside its
        ground set is a flat of rank one less than the restriction.
        """
        sub = self._check_subset(ground_subset)
        cand = self._check_subset(candidate)
        if not cand or not cand <= sub:
            return False
        h = sub - cand
        r_sub = self.rank_of(sub)
        if self.rank_of(h) != r_sub - 1:
            return False
        return all(self.rank_of(h | {e}) == r_sub for e in cand)

    def small_circuits(self) -> tuple[SmallCircuit, ...]:
        out = []
        for apex in sorted_faces(self.complex.skeleton(self.complex.k + 1)):
            vec = boundary(self.complex, apex, self.field)
            out.append(SmallCircuit(apex=apex, members=vec.support, vector=vec))
        return tuple(out)

    def circuits_brute(self, max_size: int | None = None,
                       max_ground: int = DEFAULT_BRUTE_GROUND) -> list[frozenset[int]]:
        """All circuits of at most max_size elements, smallest first.

        Depth-first search over independent subsets in lexicographic
        order; each dependent single-element extension yields its unique
        fundamental circuit.  Refuses when the ground set exceeds
        max_ground.
        """
        g = self.ground
        if len(g) > max_ground:
            raise GuardExceeded(
                f"circuit enumeration over {len(g)} elements exceeds the guard of {max_ground}")
        if max_size is None:
            max_size = len(g)
        if max_size < 1 or not g:
            return []
        found: set[int] = set()     # circuits as masks over ground indices
        cols = [self._cols[f] for f in g]
        inc = IncrementalRank(self.field, track=True)

        def dfs(start: int, size: int) -> None:
            for i in range(start, len(g)):
                if not inc.add(cols[i], i):
                    found.add(inc.relation_support())
                    continue
                if size + 1 < max_size:
                    dfs(i + 1, size + 1)
                inc.pop()

        dfs(0, 0)
        circuits = [frozenset(g[j] for j in _bit_indices(mask)) for mask in found]
        return sorted(circuits, key=lambda c: (len(c), sorted(map(face_sort_key, c))))

    def is_dependency(self, chain: ChainVector) -> bool:
        """Does the combination of boundary columns with these coefficients vanish?"""
        self._check_subset(chain.support)
        return not combine(self.field, [(a, self._cols[f]) for f, a in chain.items_lex()])


def _minimal_supports(basis: Sequence[Sequence[Scalar]], supports: Iterable[int],
                      field: Field) -> list[int]:
    """The inclusion-minimal masks among supports of nonzero vectors in the span V of basis.

    The vectors of V that vanish outside a support s form a subspace of
    dimension dim V minus the rank of basis restricted to the coordinates
    outside s.  s is minimal iff that subspace is a line, that is iff the
    restricted basis has rank dim V - 1; that needs at least dim V - 1
    coordinates outside s.
    """
    rows = [sparse_column(field, enumerate(b)) for b in basis]
    width = len(basis[0]) if basis else 0
    out = []
    for s in supports:
        if width - s.bit_count() < len(rows) - 1:
            continue
        if field.p == 2:
            restricted = [row & ~s for row in rows]
        else:
            restricted = [{i: a for i, a in row.items() if not s >> i & 1} for row in rows]
        inc = IncrementalRank(field)
        inc.extend(restricted)
        if inc.rank == len(rows) - 1:
            out.append(s)
    return out


def _slices(vec: Sequence[int], p: int) -> list[int]:
    """A vector over GF(p) as p masks, mask a marking the coordinates equal to a."""
    masks = [0] * p
    for j, a in enumerate(vec):
        masks[a] |= 1 << j
    return masks


def _coset_supports(offset: Sequence[int], basis: Sequence[Sequence[int]],
                   p: int) -> Iterator[int]:
    """The support mask of every vector of offset + span(basis) over GF(p).

    Vectors are held as their p coordinate-class masks, so adding a basis
    vector costs p times its number of distinct entries in mask
    operations, whatever the width.
    """
    parts = [[(a, m) for a, m in enumerate(_slices(b, p)) if m] for b in basis]
    full = (1 << len(offset)) - 1

    def rec(i: int, vec: list[int]) -> Iterator[int]:
        if i == len(parts):
            yield full & ~vec[0]
            return
        yield from rec(i + 1, vec)
        for _ in range(1, p):
            shifted = [0] * p
            for a, m in parts[i]:
                for x in range(p):
                    shifted[(x + a) % p] |= vec[x] & m
            vec = shifted
            yield from rec(i + 1, vec)

    yield from rec(0, _slices(offset, p))


def _span_supports(basis: Sequence[Sequence[Scalar]], field: Field, limit: int) -> set[int]:
    """The supports of the nonzero vectors of the span.  Scaling keeps a
    support, so only vectors whose first nonzero coefficient is one are
    visited: basis[i] plus the span of the basis vectors after it."""
    if field.p is None:
        raise ValueError("span enumeration needs a finite field")
    if field.p ** len(basis) > limit:
        raise GuardExceeded(
            f"span of dimension {len(basis)} over {field} exceeds the enumeration guard")
    out: set[int] = set()
    for i, b in enumerate(basis):
        out.update(_coset_supports(b, basis[i + 1:], field.p))
    return out


def _minimal_support_sets(m: SimplicialMatroid, basis: list, limit: int) -> set[frozenset[int]]:
    supports = _span_supports(basis, m.field, limit)
    return {frozenset(m.ground[i] for i in _bit_indices(s))
            for s in _minimal_supports(basis, supports, m.field)}


def matroid_circuits_exhaustive(m: SimplicialMatroid, limit: int = DEFAULT_SPAN_LIMIT) -> set[frozenset[int]]:
    """The full circuit family.

    Over a finite field the minimal supports of the nullspace are
    enumerated exhaustively; over the rationals this falls back to
    subset brute force.
    """
    if m.field.is_finite:
        _, relations = column_relations([m._cols[f] for f in m.ground], m.field)
        basis = [dense_column(m.field, rel, len(m.ground)) for rel in relations.values()]
        return _minimal_support_sets(m, basis, limit)
    return set(m.circuits_brute())


def matroid_cocircuits_exhaustive(m: SimplicialMatroid, limit: int = DEFAULT_SPAN_LIMIT) -> set[frozenset[int]]:
    """The full cocircuit family: minimal supports of the row space."""
    if m.field.is_finite:
        pivots, relations = column_relations([m._cols[f] for f in m.ground], m.field)
        basis = echelon_rows(pivots, relations, len(m.ground), m.field)
        return _minimal_support_sets(m, basis, limit)
    if 2 ** len(m.ground) > limit:
        raise GuardExceeded("cocircuit enumeration over the rationals exceeds the guard")
    out = set()
    for size in range(1, len(m.ground) + 1):
        for cand in itertools.combinations(m.ground, size):
            if m.is_cocircuit(cand):
                out.add(frozenset(cand))
    return out


def verify_full_duality(n: int, k: int, field: Field) -> bool:
    """Complementation maps the circuits of the full (n-k)-matroid onto the
    cocircuits of the full k-matroid on [n].  Both families are computed
    exhaustively and compared as sets.

    The work is sized in closed form before either matroid is built, and
    the check refuses above DEFAULT_DUALITY_SPAN.  Over GF(p) both spans
    (the row space of the k-matroid and the nullspace of the (n-k)-matroid)
    have dimension C(n-1, k-1), since the full simplex is acyclic over
    every field; over the rationals the cocircuit scan visits 2^C(n, k)
    subsets.  The exponents are compared first, so no huge power is formed.
    """
    if not (2 <= k <= n - 2 and n <= 64):
        raise ValueError(f"duality check needs 2 <= k <= n - 2 and n <= 64, got n={n}, k={k}")
    limit = DEFAULT_DUALITY_SPAN
    if field.is_finite:
        base, dim, what = field.p, comb(n - 1, k - 1), "a span of {} vectors"
    else:
        base, dim, what = 2, comb(n, k), "a scan of {} subsets"
    if dim >= limit.bit_length() or base ** dim > limit:
        size = f"{base}^{dim}" + (f" = {base ** dim}" if dim < 64 else "")
        raise GuardExceeded(f"duality check needs {what.format(size)}, "
                            f"above the limit of {limit}")
    m_k = SimplicialMatroid(full_complex(n, k), field)
    m_nk = SimplicialMatroid(full_complex(n, n - k), field)
    full_mask = (1 << n) - 1
    mapped = {frozenset(full_mask ^ x for x in c) for c in matroid_circuits_exhaustive(m_nk, limit)}
    return mapped == matroid_cocircuits_exhaustive(m_k, limit)

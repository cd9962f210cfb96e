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
from operator import xor
from typing import Iterable, Sequence

from .chains import ChainVector, boundary, boundary_columns
from .complexes import (HypercliqueComplex, _bit_positions, all_faces, face_sort_key,
                        sorted_faces, vertices)
from .errors import GuardExceeded
from .fields import Field, Scalar
from .linalg import IncrementalRank, column_relations, combine, dense_column, sparse_column

DEFAULT_BRUTE_GROUND = 22
DEFAULT_SPAN_LIMIT = 1 << 22
DUALITY_FACE_LIMIT = 1 << 12


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
        self._verified_peels: set = set()   # (sequence, cocircuits) of peels accepted here

    def __repr__(self) -> str:
        return f"SimplicialMatroid({self.complex!r}, {self.field})"

    @cached_property
    def _cols(self) -> dict:
        """Boundary column of each k-face, built on first use."""
        _, cols = boundary_columns(self.field, self.ground)
        return dict(zip(self.ground, cols))

    @cached_property
    def _apex_cols(self) -> list[tuple[int, object]]:
        """(apex, boundary column over the ground set) of each (k+1)-face,
        in lex order, built on first use."""
        apexes = sorted_faces(self.complex.skeleton(self.complex.k + 1))
        return list(zip(apexes, boundary_columns(self.field, apexes, self.ground)[1]))

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

        Enumerated by _circuit_masks with a limit of 2^max_ground: either
        count it sizes stays below 2^|E|, so the only refusal is the
        ground set exceeding max_ground.
        """
        g = self.ground
        if len(g) > max_ground:
            raise GuardExceeded(
                f"circuit enumeration over {len(g)} elements exceeds the guard of {max_ground}")
        masks = _circuit_masks([self._cols[f] for f in g], self.field,
                               len(g) if max_size is None else max_size, 1 << max_ground)
        circuits = [frozenset(g[j] for j in _bit_positions(mask)) for mask in masks]
        return sorted(circuits, key=lambda c: (len(c), sorted(map(face_sort_key, c))))

    def is_dependency(self, chain: ChainVector) -> bool:
        """Does the combination of boundary columns with these coefficients vanish?"""
        self._check_subset(chain.support)
        return not combine(self.field, [(a, self._cols[f]) for f, a in chain.items_lex()])


def _minimal_supports(basis: Sequence[Sequence[Scalar]], pivots: Sequence[int],
                      supports: Iterable[int], field: Field) -> list[int]:
    """The inclusion-minimal masks among supports of nonzero vectors in the span V of basis.

    basis must be reduced at pivots: basis[i] is one at coordinate
    pivots[i] and zero at every other pivot.  A nullspace basis from
    column_relations (one vector per dependent column) is.  A vector of V
    is then sum c_i basis[i] with c_i its entry at pivots[i], so every
    nonzero vector meets the pivots.  Each support is tested on its own,
    so any subset of the span's supports may be passed.

    Let s be a support and I the basis vectors whose pivot lies in s.
    A vector of V vanishing outside s has c_i = 0 for i outside I, so
    these vectors are the combinations of the I vectors that vanish on
    the coordinates outside s, all of them non-pivot, since an I vector
    is zero at the other pivots.  They form a space of dimension |I|
    minus the rank of the I vectors restricted to those coordinates.  s
    is minimal iff that space is a line, iff the restriction has rank
    |I| - 1.  When |I| = 1 this holds at once: the one vector of V with
    support s is a multiple of that basis vector, which thus vanishes
    outside s.  Rank |I| - 1 needs |I| - 1 non-pivot coordinates outside
    s, that is width - |s| >= dim V - 1, which is checked first.  The
    vector with support s relates all |I| restricted vectors with nonzero
    coefficients, so any |I| - 1 of them span the same space: the test
    leaves out the first and asks whether the rest are independent.
    """
    rows = [(1 << c, sparse_column(field, enumerate(b))) for c, b in zip(pivots, basis)]
    width = len(basis[0]) if basis else 0
    out = []
    for s in supports:
        if width - s.bit_count() < len(rows) - 1:
            continue
        mine = [row for bit, row in rows if s & bit][1:]
        if mine:
            if field.p == 2:
                restricted = [row & ~s for row in mine]
            else:
                restricted = [{i: a for i, a in row.items() if not s >> i & 1} for row in mine]
            inc = IncrementalRank(field)
            inc.extend(restricted)
            if inc.rank < len(mine):
                continue
        out.append(s)
    return out


def _gray_steps(digits: int, p: int) -> list[int]:
    """The digit changed at each step of the modular p-ary Gray code
    (Knuth, TAOCP 4A, 7.2.1.1): step t adds one, mod p, to digit j, where
    p^j is the largest power of p dividing t.  The p^digits - 1 steps from
    zero visit every tuple once, and the first p^i - 1 of them are the
    code on i digits."""
    steps: list[int] = []
    for j in range(digits):
        steps = (steps + [j]) * (p - 1) + steps
    return steps


def _span_supports(basis: Sequence[Sequence[Scalar]], field: Field) -> set[int]:
    """The supports of the nonzero vectors of the span over GF(p), p^len(basis)
    vectors, which the caller sizes.  Scaling keeps a support, so only
    vectors whose first nonzero coefficient is one are visited: basis[i]
    plus the span of the basis vectors after it, walked in Gray-code
    order, so each step adds one basis vector.

    Over GF(2) a vector is an int mask and a step is one xor.  Over GF(p)
    a vector is held as its p coordinate-class masks packed in one int,
    lane a (bits a * width up) marking the coordinates equal to a.  Adding
    a basis vector rotates, within each of its own coordinate classes,
    the lanes by that class's value, whatever the width.
    """
    if not basis:
        return set()
    p = field.p
    steps = _gray_steps(len(basis) - 1, p)
    out: set[int] = set()
    if p == 2:
        masks = [sparse_column(field, enumerate(b)) for b in basis]
        for i, b in enumerate(masks):
            rest = masks[i + 1:]
            walk = itertools.islice(steps, (1 << len(rest)) - 1)
            out.update(itertools.accumulate(map(rest.__getitem__, walk), xor, initial=b))
        return out
    width = len(basis[0])
    full = (1 << width) - 1
    lanes = sum(1 << a * width for a in range(p))
    starts, moves = [], []
    for b in basis:
        classes = [0] * p
        for j, a in enumerate(b):
            classes[a] |= 1 << j
        starts.append(sum(m << a * width for a, m in enumerate(classes)))
        moves.append([(a * width, (p - a) * width, m * lanes)
                      for a, m in enumerate(classes) if m])
    for i, vec in enumerate(starts):
        out.add(vec & full ^ full)
        rest = moves[i + 1:]
        for j in itertools.islice(steps, p ** len(rest) - 1):
            moved = 0
            for left, right, mask in rest[j]:
                moved |= (vec << left | vec >> right) & mask
            vec = moved
            out.add(vec & full ^ full)
    return out


def _independent_set_circuits(cols: Sequence, field: Field, max_size: int) -> set[int]:
    """Depth-first search over the independent sets of fewer than max_size
    columns, in lexicographic order; each dependent single-column
    extension yields its unique fundamental circuit, as a mask."""
    found: set[int] = set()
    inc = IncrementalRank(field, track=True)

    def dfs(start: int, size: int) -> None:
        for i in range(start, len(cols)):
            if not inc.add(cols[i], i):
                found.add(inc.relation_support())
                continue
            if size + 1 < max_size:
                dfs(i + 1, size + 1)
            inc.pop()

    dfs(0, 0)
    return found


def _circuit_masks(cols: Sequence, field: Field, max_size: int, limit: int) -> list[int]:
    """The circuits of at most max_size of the columns (kernel form), as
    masks over column indices: the minimal supports of the nullspace.

    With d the nullity, the span walk visits p^d vectors and the
    independent-set search at most sum_{i < max_size} C(|E|, i) subsets.
    Over GF(p) the walk runs when it is no longer, with supports over
    max_size dropped before the minimality test; otherwise, and always
    over the rationals, the search runs.  Either way the chosen count is
    sized first and refused above limit.
    """
    max_size = min(max_size, len(cols))
    if max_size < 1:
        return []
    relations = column_relations(cols, field)[1]
    subsets = sum(comb(len(cols), i) for i in range(max_size))
    vectors = field.p ** len(relations) if field.is_finite else None
    walk = vectors is not None and vectors <= subsets
    count, unit = (vectors, "vectors") if walk else (subsets, "subsets")
    if count > limit:
        raise GuardExceeded(f"circuit enumeration over {len(cols)} elements needs {count} "
                            f"{unit}, above the limit of {limit}")
    if not walk:
        return list(_independent_set_circuits(cols, field, max_size))
    basis = [dense_column(field, rel, len(cols)) for rel in relations.values()]
    supports = [s for s in _span_supports(basis, field) if s.bit_count() <= max_size]
    return _minimal_supports(basis, list(relations), supports, field)


def _dual_columns(cols: Sequence, field: Field) -> list:
    """Columns whose matroid is the dual of the columns' matroid: column e
    holds, at row r, the coefficient on e of relation r from
    column_relations.  The relations are a basis of the nullspace, and a
    matrix whose rows span the nullspace represents the dual (Oxley,
    Matroid Theory, 2.2), so its circuits are the cocircuits of cols."""
    relations = list(column_relations(cols, field)[1].values())
    return [sparse_column(field, [(r, rel.get(e, 0)) for r, rel in enumerate(relations)])
            for e in range(len(cols))]


def _family(m: SimplicialMatroid, cols: Sequence, limit: int) -> set[frozenset[int]]:
    """The circuits of cols, one per ground face, as sets of faces."""
    return {frozenset(m.ground[i] for i in _bit_positions(s))
            for s in _circuit_masks(cols, m.field, len(cols), limit)}


def matroid_circuits_exhaustive(m: SimplicialMatroid, limit: int = DEFAULT_SPAN_LIMIT) -> set[frozenset[int]]:
    """The full circuit family, enumerated by _circuit_masks within limit."""
    return _family(m, [m._cols[f] for f in m.ground], limit)


def matroid_cocircuits_exhaustive(m: SimplicialMatroid, limit: int = DEFAULT_SPAN_LIMIT) -> set[frozenset[int]]:
    """The full cocircuit family: the circuits of the dual columns."""
    return _family(m, _dual_columns([m._cols[f] for f in m.ground], m.field), limit)


def _complement_sign(f: int) -> int:
    """The sign of the permutation listing f and then its complement, each
    increasing.  The vertex of f at position a, its i-th from i = 0, lies
    above a - i vertices of the complement: the sign is (-1) to the sum of
    these, whatever the number of vertices."""
    d = f.bit_count()
    return -1 if (sum(_bit_positions(f)) - d * (d - 1) // 2) & 1 else 1


def _full_columns(field: Field, n: int, d: int) -> dict:
    """d-face -> boundary column over the (d-1)-faces in colex order, for
    every d-subset of [n] in decreasing mask order.  The kernel then meets
    first the faces holding the top vertex, each a new pivot at its lowest
    row, itself less that vertex.  Each later column is cleared in d steps
    and fills in only rows holding the top vertex, which lie higher."""
    faces = sorted(all_faces(n, d), reverse=True)
    return dict(zip(faces, boundary_columns(field, faces)[1]))


def _rank(field: Field, cols) -> int:
    inc = IncrementalRank(field)
    inc.extend(cols)
    return inc.rank


def _coboundaries_map_to_cycles(field: Field, n: int, k: int, cols_nk: dict, sign) -> bool:
    """Does the boundary map of the (n-k)-faces (cols_nk, from _full_columns)
    kill the coboundary of every (k-1)-set u moved by f -> sign(f) * f^c?
    The coboundary has, at each k-face f = u + x, the incidence sign of u
    in the boundary of f: (-1)^j, x the j-th smallest vertex of f."""
    full = (1 << n) - 1
    moved = {full ^ g: (sign(full ^ g), col) for g, col in cols_nk.items()}
    for rest in all_faces(n, n - k + 1):
        u = full ^ rest
        terms = []
        for x in _bit_positions(rest):
            e, col = moved[u | 1 << x]
            below = (u & (1 << x) - 1).bit_count()     # j = below + 1
            terms.append((e if below & 1 else -e, col))
        if combine(field, terms):
            return False
    return True


def verify_full_duality(n: int, k: int, field: Field) -> bool:
    """Does complementation carry the circuits of the full (n-k)-matroid on
    [n] onto the cocircuits of the full k-matroid?  It does over every
    field (Cordovil and Lindstrom, "Simplicial matroids", 1987); this
    checks a witness.  Let M_d be the boundary matrix of the d-faces,
    eps(f) the sign of the permutation listing f and then its complement,
    each increasing, and phi the map f -> eps(f) * f^c from chains on the
    k-faces to chains on the (n-k)-faces.  Two checks:

    (a) the boundary map of the (n-k)-faces kills phi(r) for every row r
        of M_k, the coboundary of a (k-1)-set;
    (b) rank M_k + rank M_{n-k} = C(n, k), both ranks computed.

    Proof.  The cocircuits of M_k are the minimal nonempty supports of its
    row space R, the circuits of M_{n-k} those of its nullspace Z.  By
    (a), phi(R) lies in Z.  phi is a signed permutation of coordinates, so
    dim phi(R) = rank M_k, which by (b) is C(n, k) - rank M_{n-k} = dim Z.
    So phi(R) = Z.  phi keeps supports, up to renaming each face by its
    complement, so the circuits of M_{n-k}, complemented, are exactly the
    cocircuits of M_k.

    False means a check failed.  A failed (b) refutes the duality, as the
    dual of M_k has rank C(n, k) - rank M_k; (a) holds over the integers,
    so its failure is a fault in the program.  Without eps, (a) fails over
    every field but GF(2).  When n = 2k one column set and one rank serve
    both sides.  The work is O(C(n, k) * n^2), as _full_columns orders the
    columns for elimination without fill-in, and the one guard counts
    faces: C(n, k) is computed before anything is built and refused above
    DUALITY_FACE_LIMIT.
    """
    if not (2 <= k <= n - 2 and n <= 64):
        raise ValueError(f"duality check needs 2 <= k <= n - 2 and n <= 64, got n={n}, k={k}")
    faces = comb(n, k)
    if faces > DUALITY_FACE_LIMIT:
        raise GuardExceeded(f"duality check needs C({n}, {k}) = {faces} faces, "
                            f"above the limit of {DUALITY_FACE_LIMIT} faces")
    cols_k = _full_columns(field, n, k)
    cols_nk = cols_k if n == 2 * k else _full_columns(field, n, n - k)
    if not _coboundaries_map_to_cycles(field, n, k, cols_nk, _complement_sign):
        return False
    rank_k = _rank(field, cols_k.values())
    rank_nk = rank_k if n == 2 * k else _rank(field, cols_nk.values())
    return rank_k + rank_nk == faces

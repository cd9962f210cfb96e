"""Dense reference algorithms, kept apart from the program as test oracles.

These are the straightforward versions the program once ran: Gauss-Jordan
elimination over dense rows, and minimal supports found by comparing
every support with every minimal one found before it; span supports
walked by recursion over the basis; circuits and cocircuits found by
testing every subset by rank; facets found by testing every vertex
subset; supersolvability decided by searching the lattice of flats for a
maximal chain of modular flats; peel steps checked by those facets and
by dense ranks; the peel search that rescans every (k-1)-set at every
step and the peel verifier that walks the steps forward, rebuilding the
residual complex each time; circuit decompositions found by
enumerating solution cosets or apex subsets; strong triangulability
decided by one span test per enumerated circuit; and complement duality
of the full complexes decided by enumerating both families.  They are
slow but plain, so the sparse kernel and its callers are checked against
them.  The incidence sign of a face in the boundary of a larger one is
here too, as the sign rule the boundary columns are checked against.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from simatroid import (CertificateError, HypercliqueComplex, SimplicialMatroid, circuit_vector,
                       full_complex, is_simplicial_face, matroid_circuits_exhaustive,
                       matroid_cocircuits_exhaustive, simplicial_faces, sorted_faces)
from simatroid.chains import boundary_columns
from simatroid.complexes import vertices
from simatroid.linalg import IncrementalRank, sparse_column


def dense_rref(rows: Sequence[Sequence], field) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Reduced row echelon form of a dense matrix: (pivot columns, reduced rows).

    Columns are scanned left to right and the pivot is the first row at or
    below the current one with a nonzero entry.
    """
    F = field
    rows = [[F.of(a) for a in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, a) for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(pivots), tuple(tuple(row) for row in rows)


def dense_rank(rows: Sequence[Sequence], field) -> int:
    return len(dense_rref(rows, field)[0])


def dense_nullspace(rows: Sequence[Sequence], field, ncols: int) -> list[tuple]:
    """One basis vector per free column, ascending: 1 there, minus the
    reduced entries at the pivot columns."""
    F = field
    pivots, reduced = dense_rref(rows, field)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [F.zero] * ncols
        vec[f] = F.one
        for i, c in enumerate(pivots):
            vec[c] = F.neg(reduced[i][f])
        basis.append(tuple(vec))
    return basis


def transpose(cols: Sequence[Sequence], nrows: int) -> list[list]:
    return [[col[i] for col in cols] for i in range(nrows)]


def minimal_supports(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal masks, smallest first, by pairwise comparison."""
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    minimal: list[int] = []
    for m in ordered:
        if not any(acc & m == acc for acc in minimal):
            minimal.append(m)
    return minimal


def coset_supports(offset: Sequence[int], basis: Sequence[Sequence[int]], p: int) -> Iterator[int]:
    """The support mask of every vector of offset + span(basis) over GF(p),
    by recursion on the basis: each vector held as its p coordinate-class
    masks, the coefficient of basis[i] fixed at depth i."""
    def slices(vec):
        masks = [0] * p
        for j, a in enumerate(vec):
            masks[a] |= 1 << j
        return masks

    parts = [[(a, m) for a, m in enumerate(slices(b)) if m] for b in basis]
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

    yield from rec(0, slices(offset))


def span_supports(basis: Sequence[Sequence[int]], p: int) -> set[int]:
    """The supports of the nonzero vectors of span(basis) over GF(p), one
    coset of the later basis vectors per leading basis vector."""
    out: set[int] = set()
    for i, b in enumerate(basis):
        out.update(coset_supports(b, basis[i + 1:], p))
    return out


def brute_facets(c) -> set[int]:
    """The maximal faces of a complex, by testing every vertex subset."""
    faces = set()
    for mask in range(1, 1 << c.n):
        verts = [i for i in range(c.n) if mask >> i & 1]
        if len(verts) < c.k or all(sum(1 << i for i in sub) in c.faces_k
                                   for sub in combinations(verts, c.k)):
            faces.add(mask)
    return {f for f in faces
            if not any(f | 1 << i in faces for i in range(c.n) if not f >> i & 1)}


def closure(m, subset) -> frozenset[int]:
    """The smallest flat of the matroid m containing subset."""
    fs = frozenset(subset)
    r = m.rank_of(fs)
    return frozenset(e for e in m.ground if e in fs or m.rank_of(fs | {e}) == r)


def supersolvable_modular_chain(m) -> bool:
    """Brute-force search for a maximal chain of modular flats.

    Flats are enumerated by closure saturation; modularity of a flat X
    is tested against every flat Y via r(X) + r(Y) == r(X u Y) + r(X n Y)
    (the intersection of flats is a flat, and closures preserve rank).
    Exponential in the ground set: callers keep it to a dozen elements.
    """
    bottom = closure(m, frozenset())
    flats: set[frozenset[int]] = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for flat in frontier:
            for e in m.ground:
                if e in flat:
                    continue
                bigger = closure(m, flat | {e})
                if bigger not in flats:
                    flats.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    by_rank: dict[int, list[frozenset[int]]] = {}
    for flat in flats:
        by_rank.setdefault(m.rank_of(flat), []).append(flat)
    modular_cache: dict[frozenset[int], bool] = {}

    def modular(x: frozenset[int]) -> bool:
        got = modular_cache.get(x)
        if got is None:
            rx = m.rank_of(x)
            got = all(rx + m.rank_of(y) == m.rank_of(x | y) + m.rank_of(x & y)
                      for y in flats)
            modular_cache[x] = got
        return got

    r = m.rank
    dead: set[frozenset[int]] = set()

    def climb(x: frozenset[int], level: int) -> bool:
        if level == r:
            return True
        if x in dead:
            return False
        for y in by_rank.get(level + 1, ()):
            if x < y and modular(y) and climb(y, level + 1):
                return True
        dead.add(x)
        return False

    return modular(bottom) and climb(bottom, m.rank_of(bottom))



def incidence(small: int, big: int) -> int:
    """(-1)^j if small is big with its j-th smallest vertex removed, else 0."""
    diff = big & ~small
    if small & big != small or diff.bit_count() != 1:
        return 0
    position = (big & (diff - 1)).bit_count() + 1
    return -1 if position % 2 else 1


def _signed_columns(faces: Sequence[int], rows: Sequence[int]) -> list[list[int]]:
    """Dense boundary columns of faces over the given row faces: each
    entry is the incidence sign of its row in its face."""
    return [[incidence(r, f) for r in rows] for f in faces]


def _ridges(n: int, faces: Iterable[int]) -> list[int]:
    return sorted({f & ~(1 << i) for f in faces for i in range(n) if f >> i & 1})


def boundary_rank(n: int, field, faces: frozenset[int]) -> int:
    """Dense rank of the boundary columns of faces."""
    ridges = _ridges(n, faces)
    return dense_rank(transpose(_signed_columns(sorted(faces), ridges), len(ridges)), field)


def peel_step_checker(c, field):
    """A function telling whether steps, (face v, removed k-faces) pairs,
    are a complete simplicial peel of c with each removed set a cocircuit
    of the residual matroid.

    v is simplicial when exactly one facet of the residual complex (by
    brute_facets) strictly contains it; the removed set must be its star;
    the complement of the star must be a flat of rank one less (by dense
    rank).  Facets and ranks are cached per residual, so many edits of
    one peel are cheap to check.
    """
    facets = cache(lambda faces: brute_facets(SimpleNamespace(n=c.n, k=c.k, faces_k=faces)))
    rank = cache(lambda faces: boundary_rank(c.n, field, faces))

    def ok(steps) -> bool:
        residual = frozenset(c.faces_k)
        for v, removed in steps:
            if v.bit_count() != c.k - 1:
                return False
            above = [f for f in facets(residual) if f & v == v and f != v]
            star = frozenset(f for f in residual if f & v == v)
            if len(above) != 1 or removed != star:
                return False
            h = residual - star
            r = rank(residual)
            if rank(h) != r - 1 or any(rank(h | {e}) != r for e in star):
                return False
            residual = h
        return not residual

    return ok


def rescanning_peel_search(c) -> list[tuple[int, frozenset[int]]] | None:
    """(face, star) steps of the lex-first complete simplicial peel, or
    None: at every node a fresh complex of the residual and a scan of all
    its (k-1)-sets; one dive for k = 2, backtracking over the failed
    residuals for k > 2."""
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


def forward_verify_peel(m, steps) -> None:
    """Walk the (face, claimed star) steps down from the ground set: each
    face simplicial in a freshly built residual complex, the claim its
    star there, the star a cocircuit of the residual by rank, and the
    ground set exhausted; CertificateError otherwise."""
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


def _dense_solve(cols: Sequence[Sequence], target: Sequence, field):
    """(a particular solution, a nullspace basis) of sum_j x_j cols[j] ==
    target, free coordinates zero; None when there is no solution."""
    nrows, ncols = len(target), len(cols)
    pivots, reduced = dense_rref(transpose(list(cols) + [target], nrows), field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = reduced[i][ncols]
    return x, dense_nullspace(transpose(cols, nrows), field, ncols)


def decomposable_inside(c, field, circuit, span_limit: int, subset_limit: int) -> bool | None:
    """Is the dependency on circuit a combination of boundaries of
    (k+1)-faces whose apexes cover exactly its vertex set W?

    The candidate apexes are the (k+1)-faces inside W.  Over GF(p) every
    solution in the coset is tried and its nonzero apexes' cover compared
    with W; over the rationals every apex subset covering W is tried, and
    it works when no coordinate vanishes on its whole solution coset.
    None when the coset holds more than span_limit vectors or there are
    more than subset_limit apex subsets.
    """
    F = field
    faces = sorted(circuit)
    want = 0
    for f in faces:
        want |= f
    ridges = _ridges(c.n, faces)
    kernel = dense_nullspace(transpose(_signed_columns(faces, ridges), len(ridges)),
                             F, len(faces))
    assert len(kernel) == 1 and all(not F.is_zero(a) for a in kernel[0]), "not a circuit"
    inside = sorted(f for f in c.faces_k if f & want == f)
    z = dict(zip(faces, kernel[0]))
    target = [z.get(f, F.zero) for f in inside]
    verts = [i for i in range(c.n) if want >> i & 1]
    apexes = [a for a in (sum(1 << i for i in sub) for sub in combinations(verts, c.k + 1))
              if all((a & ~(1 << i)) in c.faces_k for i in verts if a >> i & 1)]
    cols = _signed_columns(apexes, inside)

    def cover(js) -> int:
        out = 0
        for j in js:
            out |= apexes[j]
        return out

    if F.is_finite:
        sol = _dense_solve(cols, target, F) if apexes else None
        if sol is None:
            return False
        x, basis = sol
        if F.p ** len(basis) > span_limit:
            return None
        for ts in product(range(F.p), repeat=len(basis)):
            y = list(x)
            for t, vec in zip(ts, basis):
                y = [F.add(a, F.mul(t, b)) for a, b in zip(y, vec)]
            if cover(j for j, a in enumerate(y) if not F.is_zero(a)) == want:
                return True
        return False
    if 2 ** len(apexes) > subset_limit:
        return None
    for pick in range(1, 1 << len(apexes)):
        chosen = [j for j in range(len(apexes)) if pick >> j & 1]
        if cover(chosen) != want:
            continue
        sol = _dense_solve([cols[j] for j in chosen], target, F)
        if sol is None:
            continue
        x, basis = sol
        if all(not F.is_zero(x[j]) or any(not F.is_zero(vec[j]) for vec in basis)
               for j in range(len(chosen))):
            return True
    return False


def strongly_triangulable_by_circuits(m, limit: int) -> bool:
    """Does every circuit lie in the span of the boundaries of the
    (k+1)-faces inside its own vertex set W?  One span test per circuit,
    with one kernel per W; the circuits are enumerated exhaustively, so
    this raises GuardExceeded past limit span vectors over GF(p), or past
    22 faces over the rationals.  No triangulability test is needed first:
    the circuits span the dependencies."""
    c = m.complex
    apexes = sorted_faces(c.skeleton(c.k + 1))
    apex_cols = boundary_columns(m.field, apexes, m.ground)[1]
    pos = {f: i for i, f in enumerate(m.ground)}
    kernels: dict[int, IncrementalRank] = {}
    for circuit in matroid_circuits_exhaustive(m, limit):
        want = 0
        for f in circuit:
            want |= f
        inc = kernels.get(want)
        if inc is None:
            inc = kernels[want] = IncrementalRank(m.field)
            inc.extend([col for x, col in zip(apexes, apex_cols) if x & want == x])
        z = circuit_vector(m, circuit)
        if inc.reduce(sparse_column(m.field, [(pos[f], a) for f, a in z.items_lex()])):
            return False
    return True


def circuits_by_rank(m, max_size: int | None = None) -> set[frozenset[int]]:
    """Every circuit of at most max_size faces, by testing every subset: a
    dependent set whose every one-smaller subset is independent."""
    out = set()
    for size in range(1, len(m.ground) + 1 if max_size is None else max_size + 1):
        for cand in combinations(m.ground, size):
            if m.rank_of(cand) < size and all(
                    m.rank_of(cand[:i] + cand[i + 1:]) == size - 1 for i in range(size)):
                out.add(frozenset(cand))
    return out


def cocircuits_by_rank(m) -> set[frozenset[int]]:
    """Every cocircuit, by testing every subset with is_cocircuit."""
    return {frozenset(cand) for size in range(1, len(m.ground) + 1)
            for cand in combinations(m.ground, size) if m.is_cocircuit(cand)}


def duality_by_enumeration(n: int, k: int, field, limit: int) -> bool:
    """Does complementation carry the circuits of the full (n-k)-matroid
    onto the cocircuits of the full k-matroid?  Both families are
    enumerated, each refused above limit vectors or subsets."""
    m_k = SimplicialMatroid(full_complex(n, k), field)
    m_nk = m_k if n == 2 * k else SimplicialMatroid(full_complex(n, n - k), field)
    full_mask = (1 << n) - 1
    circuits = {frozenset(full_mask ^ f for f in c)
                for c in matroid_circuits_exhaustive(m_nk, limit)}
    return circuits == matroid_cocircuits_exhaustive(m_k, limit)

"""Answers computed apart from simatroid, used to check its reports.

Nothing here imports simatroid.  Faces are integer bitmasks, bit v-1 for
vertex v, the encoding instance files describe.  Scalars are ints mod p
for GF(p) and Fractions for the rationals (p is None).

Every function below is written from the definitions, not from the
program's algorithms:

- chordality by maximum cardinality search and a perfect-elimination test
- graph rank as n minus the number of components, by union-find
- GF(2) rank and fundamental circuits by bitset elimination
- rank over GF(p) or QQ by plain dense elimination
- boundary signs and sums of chains, for checking decompositions
- faces, facets, simplicial faces and complete peels by brute force on
  small vertex sets
- closed forms for stacked and full complexes
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


class CheckFailed(Exception):
    """The program gave an answer that the checkers prove wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- faces ---------------------------------------------------------------

def verts(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << (v - 1)
    return m


def text(mask: int) -> str:
    return " ".join(map(str, verts(mask)))


def lex(masks) -> list[int]:
    return sorted(masks, key=verts)


def k_sets(n: int, k: int) -> list[int]:
    return [mask_of(c) for c in combinations(range(1, n + 1), k)]


def subsets_of_size(mask: int, r: int) -> list[int]:
    return [mask_of(c) for c in combinations(verts(mask), r)]


def cover(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


# -- graphs --------------------------------------------------------------

def graph_components(n: int, edges) -> int:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for e in edges:
        a, b = verts(e)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps


def graph_rank(n: int, edges) -> int:
    """Rank of the cycle matroid: n minus the number of components."""
    return n - graph_components(n, edges)


def is_chordal(n: int, edges) -> bool:
    """Maximum cardinality search, then test that the reverse visit order
    is a perfect elimination ordering (Tarjan and Yannakakis, 1984)."""
    adj = {v: set() for v in range(1, n + 1)}
    for e in edges:
        a, b = verts(e)
        adj[a].add(b)
        adj[b].add(a)
    weight = {v: 0 for v in adj}
    order: list[int] = []
    while weight:
        v = max(weight, key=lambda x: (weight[x], -x))
        del weight[v]
        order.append(v)
        for w in adj[v]:
            if w in weight:
                weight[w] += 1
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [w for w in adj[v] if position[w] < position[v]]
        if not earlier:
            continue
        parent = max(earlier, key=position.__getitem__)
        if not set(earlier) - {parent} <= adj[parent]:
            return False
    return True


# -- linear algebra ------------------------------------------------------

def gf2_rank(columns) -> int:
    """Rank over GF(2) of integer bitset columns."""
    pivots: dict[int, int] = {}
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def gf2_first_circuit(columns) -> list[int] | None:
    """Indices of the fundamental circuit of the first column that depends
    on the ones before it, or None when the columns are independent."""
    pivots: dict[int, tuple[int, int]] = {}
    for j, v in enumerate(columns):
        combo = 1 << j
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = (v, combo)
                break
            pv, pc = pivots[top]
            v ^= pv
            combo ^= pc
        if not v:
            return [i for i in range(j + 1) if combo >> i & 1]
    return None


def scalar(x, p):
    return x % p if p is not None else Fraction(x)


def rank_exact(vectors, p) -> int:
    """Rank of sparse vectors ({index: scalar}) over GF(p), or QQ for None."""
    rows = [{i: scalar(a, p) for i, a in v.items() if scalar(a, p) != 0} for v in vectors]
    rank = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p) if p is not None else 1 / row[lead]
        rest = []
        for other in rows:
            f = other.get(lead)
            if f:
                f = f * inv
                for i, a in row.items():
                    b = other.get(i, 0) - f * a
                    b = b % p if p is not None else b
                    if b:
                        other[i] = b
                    else:
                        other.pop(i, None)
            rest.append(other)
        rows = rest
        rank += 1
    return rank


# -- chains --------------------------------------------------------------

def boundary(f: int, p) -> dict[int, object]:
    """Removing the j-th smallest vertex of f contributes (-1)^j, so the
    boundary of 123 is -23 + 13 - 12 (the sign rule the README documents)."""
    out = {}
    for j, v in enumerate(verts(f), start=1):
        out[f & ~(1 << (v - 1))] = scalar(-1 if j % 2 else 1, p)
    return out


def add_scaled(acc: dict, chain: dict, a, p) -> None:
    for f, c in chain.items():
        b = acc.get(f, 0) + a * c
        b = b % p if p is not None else b
        if b:
            acc[f] = b
        else:
            acc.pop(f, None)


def boundary_of_chain(chain: dict, p) -> dict:
    acc: dict = {}
    for f, a in chain.items():
        add_scaled(acc, boundary(f, p), a, p)
    return acc


def check_decomposition(faces: frozenset[int], k: int, p, target: dict, terms) -> None:
    """target = sum of a * boundary(apex), every apex a (k+1)-face of the
    complex, the apexes covering exactly the vertices of the target."""
    require(bool(target), "decomposition target is zero")
    require(set(target) <= faces, "decomposition target leaves the k-faces")
    require(not boundary_of_chain(target, p), "decomposition target is not a dependency")
    total: dict = {}
    seen = set()
    for apex, a in terms:
        require(apex not in seen, f"apex {text(apex)} repeated")
        seen.add(apex)
        require(scalar(a, p) != 0, "zero coefficient in decomposition")
        require(apex.bit_count() == k + 1
                and all(s in faces for s in subsets_of_size(apex, k)),
                f"apex {text(apex)} is not a (k+1)-face")
        add_scaled(total, boundary(apex, p), scalar(a, p), p)
    require(total == {f: scalar(a, p) for f, a in target.items()},
            "decomposition terms do not sum to the target")
    require(cover(a for a, _ in terms) == cover(target), "apexes do not cover the target's vertices")


def boundary_columns_gf2(faces) -> list[int]:
    """GF(2) boundary columns of the k-faces in lex order, one bit per
    (k-1)-set, numbered as met."""
    row_index: dict[int, int] = {}
    cols = []
    for f in lex(faces):
        col = 0
        for s in boundary(f, 2):
            col |= 1 << row_index.setdefault(s, len(row_index))
        cols.append(col)
    return cols


def apexes_of(faces: frozenset[int], k: int, n: int) -> list[int]:
    """The (k+1)-faces: (k+1)-sets all of whose k-subsets are faces."""
    return [a for a in k_sets(n, k + 1) if all(s in faces for s in subsets_of_size(a, k))]


def is_triangulable(faces: frozenset[int], k: int, n: int, p) -> bool:
    """Do the (k+1)-face boundaries span every dependency of the k-faces?"""
    if p == 2:
        rank = gf2_rank(boundary_columns_gf2(faces))
    else:
        rank = rank_exact([boundary(f, p) for f in faces], p)
    small = rank_exact([boundary(a, p) for a in apexes_of(faces, k, n)], p)
    return small == len(faces) - rank


# -- small complexes by brute force ---------------------------------------

class SmallComplex:
    """A k-hyperclique complex on at most ~10 vertices, from definitions."""

    def __init__(self, n: int, k: int, faces):
        self.n, self.k = n, k
        self.faces = frozenset(faces)
        bigger = set()
        layer = set(self.faces)
        while layer:
            nxt = set()
            for g in layer:
                for v in range(1, self.n + 1):
                    h = g | 1 << (v - 1)
                    if h != g and h not in nxt and all(s in self.faces
                                                       for s in subsets_of_size(h, k)):
                        nxt.add(h)
            bigger |= nxt
            layer = nxt
        self.all_faces = bigger | self.faces | {m for d in range(1, k) for m in k_sets(n, d)}

    def facets(self) -> list[int]:
        """Faces contained in no face one vertex larger."""
        return lex(g for g in self.all_faces
                   if not any(g | 1 << (v - 1) in self.all_faces
                              for v in range(1, self.n + 1) if not g >> (v - 1) & 1))

    def simplicial(self) -> list[int]:
        """(k-1)-sets strictly inside exactly one facet."""
        facets = self.facets()
        return [v for v in k_sets(self.n, self.k - 1)
                if sum(1 for g in facets if g & v == v and g != v) == 1]


def has_peel(n: int, k: int, faces) -> bool:
    """Is there a complete simplicial peel?  Depth-first over residual
    face sets, remembering the sets that dead-end."""
    dead: set[frozenset[int]] = set()

    def search(residual: frozenset[int]) -> bool:
        if not residual:
            return True
        if residual in dead:
            return False
        for v in SmallComplex(n, k, residual).simplicial():
            if search(residual - {f for f in residual if f & v == v}):
                return True
        dead.add(residual)
        return False

    return search(frozenset(faces))


# -- closed forms --------------------------------------------------------

def stacked_rank(n: int, k: int) -> int:
    """A stacked complex starts from one k-face, and every new vertex coned
    over a k-face adds k faces and one dependency."""
    return 1 + (k - 1) * (n - k)


def full_rank(n: int, k: int) -> int:
    return comb(n - 1, k - 1)


def stacked_facets(n: int, k: int, apexes, faces) -> list[int]:
    """The cone apexes plus the (k-1)-sets that lie in no k-face: a stacked
    complex has no face with more than k + 1 vertices."""
    used = {s for f in faces for s in subsets_of_size(f, k - 1)}
    return lex(set(apexes) | {v for v in k_sets(n, k - 1) if v not in used})


def stacked_simplicial(n: int, k: int, apexes) -> list[int]:
    counts: dict[int, int] = {}
    for a in apexes:
        for s in subsets_of_size(a, k - 1):
            counts[s] = counts.get(s, 0) + 1
    return lex(v for v, c in counts.items() if c == 1)


# -- certificates --------------------------------------------------------

def check_peel(faces, rank: int, peel) -> None:
    """peel: list of (face v, star).  Length = rank; each star is the set
    of residual k-faces containing v; the stars exhaust the k-faces."""
    require(len(peel) == rank, f"peel length {len(peel)} != rank {rank}")
    residual = set(faces)
    for v, star in peel:
        require(bool(star), f"empty star at {text(v)}")
        require(set(star) == {f for f in residual if f & v == v},
                f"star of {text(v)} is not the residual faces containing it")
        residual -= set(star)
    require(not residual, "peel stars do not cover the k-faces")


def check_flag(faces, rank: int, steps) -> None:
    """steps: (witness, lower flat) from the top.  Each lower flat is the
    flat above minus the faces containing the witness; r steps to empty."""
    require(len(steps) == rank, f"chain has {len(steps)} steps, rank is {rank}")
    above = frozenset(faces)
    for v, below in steps:
        require(below == frozenset(f for f in above if f & v != v) and below < above,
                f"flat below witness {text(v)} is not the complement of its star")
        above = below
    require(not above, "chain does not reach the empty flat")

"""k-hyperclique complexes on vertex sets {1, ..., n}, n <= 64.

A complex is determined by its set of k-element faces: every set of
fewer than k vertices is a face, and a set F with |F| >= k is a face
exactly when all of its k-element subsets are listed.  Faces are stored
as integer bitmasks, bit (v - 1) standing for vertex v.  is_face and the
simplicial-face tests decide a face by spans_face, from the links of
the (k-1)-sets (HypercliqueComplex.links).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator


def face(*verts: int) -> int:
    """Bitmask of a set of vertices, e.g. face(1, 2, 4)."""
    return face_of(verts)


def face_of(verts: Iterable[int]) -> int:
    mask = 0
    count = 0
    for v in verts:
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"vertices are integers >= 1, got {v!r}")
        bit = 1 << (v - 1)
        if mask & bit:
            raise ValueError(f"duplicate vertex {v}")
        mask |= bit
        count += 1
    if count == 0:
        raise ValueError("a face needs at least one vertex")
    return mask


def vertices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def face_text(mask: int) -> str:
    return " ".join(str(v) for v in vertices(mask))


def face_sort_key(mask: int) -> tuple[int, ...]:
    """Lexicographic order on the increasing vertex tuples."""
    return vertices(mask)


def sorted_faces(masks: Iterable[int]) -> list[int]:
    return sorted(masks, key=face_sort_key)


def all_faces(n: int, d: int) -> list[int]:
    """All d-element subsets of {1..n} in lexicographic order."""
    out = []
    for combo in itertools.combinations(range(n), d):
        m = 0
        for i in combo:
            m |= 1 << i
        out.append(m)
    return out


def submasks_of_size(mask: int, r: int) -> Iterator[int]:
    """The r-element submasks of mask, in lexicographic order."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    return map(sum, itertools.combinations(bits, r))


class HypercliqueComplex:
    """The largest simplicial complex with a prescribed set of k-faces."""

    def __init__(self, n: int, k: int, faces_k: Iterable):
        if not (isinstance(n, int) and 1 <= n <= 64):
            raise ValueError(f"n must be an integer in [1, 64], got {n}")
        if not (isinstance(k, int) and 2 <= k <= n):
            raise ValueError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        full = (1 << n) - 1
        masks = set()
        for f in faces_k:
            m = f if isinstance(f, int) else face_of(f)
            if m & ~full:
                raise ValueError(f"face {vertices(m)} has a vertex outside [1, {n}]")
            if m.bit_count() != k:
                raise ValueError(f"face {vertices(m)} does not have {k} vertices")
            masks.add(m)
        self.faces_k: frozenset[int] = frozenset(masks)
        self._skeletons: dict[int, frozenset[int]] = {k: self.faces_k}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HypercliqueComplex) and self.n == other.n
                and self.k == other.k and self.faces_k == other.faces_k)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.faces_k))

    def __repr__(self) -> str:
        return f"HypercliqueComplex(n={self.n}, k={self.k}, |s_k|={len(self.faces_k)})"

    def is_face(self, mask: int) -> bool:
        if mask == 0 or mask & ~((1 << self.n) - 1):
            return False
        if mask.bit_count() < self.k:
            return True
        return spans_face(self.links, self.k, mask)

    def skeleton(self, d: int) -> frozenset[int]:
        """All d-element faces.  Empty beyond n; every d-set for d < k."""
        if d < 1:
            raise ValueError(f"skeleton dimension must be >= 1, got {d}")
        if d > self.n:
            return frozenset()
        if d in self._skeletons:
            return self._skeletons[d]
        if d < self.k:
            result = frozenset(all_faces(self.n, d))
        else:
            # grow upward: a (d)-set is a face iff all its (d-1)-subsets are
            below = self.skeleton(d - 1)
            result_set = set()
            for g in below:
                for i in range(g.bit_length(), self.n):
                    cand = g | (1 << i)
                    if all(cand & ~(1 << b) in below for b in _bit_positions(cand)):
                        result_set.add(cand)
            result = frozenset(result_set)
        self._skeletons[d] = result
        return result

    @cached_property
    def links(self) -> dict[int, int]:
        """Each (k-1)-set w in some k-face -> its link, the mask of the
        vertices x with w | {x} a k-face.  Read-only: copy it to change it."""
        links: dict[int, int] = {}
        for f in self.faces_k:
            for b in _bit_positions(f):
                w = f & ~(1 << b)
                links[w] = links.get(w, 0) | 1 << b
        return links

    def star(self, v: int) -> frozenset[int]:
        """The k-faces strictly containing v (for |v| = k - 1, the star of v)."""
        return frozenset(f for f in self.faces_k if f & v == v and f != v)

    @cached_property
    def facets(self) -> frozenset[int]:
        """All maximal faces: for each d >= k - 1, the d-faces that no
        (d+1)-face covers, up to the first empty level.  Level k - 1 holds
        every (k-1)-set, so those in no k-face come out as facets too."""
        maximal: set[int] = set()
        d, level = self.k - 1, self.skeleton(self.k - 1)
        while level:
            above = self.skeleton(d + 1)
            covered = {g & ~(1 << b) for g in above for b in _bit_positions(g)}
            maximal.update(level - covered)
            d, level = d + 1, above
        return frozenset(maximal)


def spans_face(links: dict[int, int], k: int, mask: int) -> bool:
    """Is every k-subset of mask a k-face, given the links of the (k-1)-sets?

    A k-subset of mask is w | {x} with x its top vertex, so w is a
    (k-1)-subset of mask less its top vertex and x any vertex of mask
    above w; hence all are faces iff each such link holds those vertices.
    """
    for w in submasks_of_size(mask & ~(1 << mask.bit_length() - 1), k - 1):
        top = w.bit_length()
        if mask >> top << top & ~links.get(w, 0):
            return False
    return True


def _bit_positions(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_complex(n: int, k: int, faces_k: Iterable) -> HypercliqueComplex:
    """Construct and validate a complex from its k-element faces."""
    return HypercliqueComplex(n, k, faces_k)


def full_complex(n: int, k: int) -> HypercliqueComplex:
    return HypercliqueComplex(n, k, all_faces(n, k))

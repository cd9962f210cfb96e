"""Chains on a complex: sparse face-indexed vectors and boundary maps.

Signs follow the incidence rule: removing the j-th smallest vertex of a
face contributes (-1)^j, so e.g. the boundary of 123 is -23 +13 -12.
Signs are computed over the integers and then cast into the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .complexes import HypercliqueComplex, _bit_positions, all_faces, sorted_faces, vertices
from .fields import Field, Scalar
from .linalg import ExactMatrix, dense_column, sparse_column


class ChainVector:
    """Finitely supported face -> scalar map; zero coefficients are not stored."""

    __slots__ = ("field", "_coeffs")

    def __init__(self, field: Field, coeffs: Mapping[int, object] | Iterable[tuple[int, object]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, Scalar] = {}
        for f, a in items:
            a = field.of(a)
            if f in acc:
                a = field.add(acc[f], a)
            acc[f] = a
        self.field = field
        self._coeffs = {f: a for f, a in acc.items() if a != 0}

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._coeffs)

    def coeff(self, f: int) -> Scalar:
        return self._coeffs.get(f, self.field.zero)

    def items_lex(self) -> list[tuple[int, Scalar]]:
        return [(f, self._coeffs[f]) for f in sorted_faces(self._coeffs)]

    def is_zero(self) -> bool:
        return not self._coeffs

    def __len__(self) -> int:
        return len(self._coeffs)

    def _require_same_field(self, other: "ChainVector") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def add(self, other: "ChainVector") -> "ChainVector":
        self._require_same_field(other)
        out = dict(self._coeffs)
        F = self.field
        for f, a in other._coeffs.items():
            out[f] = F.add(out.get(f, F.zero), a)
        return ChainVector(F, out)

    def add_scaled(self, other: "ChainVector", a) -> "ChainVector":
        self._require_same_field(other)
        F = self.field
        a = F.of(a)
        out = dict(self._coeffs)
        for f, c in other._coeffs.items():
            out[f] = F.add(out.get(f, F.zero), F.mul(a, c))
        return ChainVector(F, out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ChainVector) and self.field == other.field
                and self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self.field, tuple(self.items_lex())))

    def __repr__(self) -> str:
        terms = ", ".join(f"{a}*{vertices(f)}" for f, a in self.items_lex())
        return f"ChainVector({self.field}; {terms or '0'})"


def _signed_facets(f: int) -> Iterator[tuple[int, int]]:
    """(f without its j-th smallest vertex, (-1)^j) for j = 1, 2, ...: the
    terms of the boundary of f, by the incidence rule."""
    sign = -1
    for i in _bit_positions(f):
        yield f & ~(1 << i), sign
        sign = -sign


def boundary(c: HypercliqueComplex, f: int, field: Field) -> ChainVector:
    """Signed sum of the facets of a single face f with |f| >= 2."""
    if not c.is_face(f):
        raise ValueError(f"{vertices(f)} is not a face of {c!r}")
    if f.bit_count() < 2:
        raise ValueError("boundary needs a face with at least 2 vertices")
    return ChainVector(field, _signed_facets(f))


@dataclass(frozen=True)
class BoundaryMatrix:
    """Dense boundary matrix: rows all (k-1)-sets of [n], columns the k-faces, both lex."""

    matrix: ExactMatrix
    row_faces: tuple[int, ...]
    col_faces: tuple[int, ...]
    field: Field


def boundary_columns(field: Field, faces: Sequence[int],
                     rows: Sequence[int] | None = None) -> tuple[tuple[int, ...], list]:
    """The boundaries of faces as sparse columns in the kernel's form
    (linalg.sparse_column), row i standing for rows[i].  By default the
    rows are the faces that occur in these boundaries, in colex order
    (the numeric order of their masks).  The faces are not checked
    against a complex: every face of size at least 2 has a boundary."""
    terms = [list(_signed_facets(f)) for f in faces]
    if rows is None:
        rows = sorted({sub for t in terms for sub, _ in t})
    pos = {v: i for i, v in enumerate(rows)}
    sign = {1: field.of(1), -1: field.of(-1)}
    cols = [sparse_column(field, [(pos[v], sign[s]) for v, s in t]) for t in terms]
    return tuple(rows), cols


def boundary_matrix(c: HypercliqueComplex, field: Field) -> BoundaryMatrix:
    """A dense view of the boundary columns, over every (k-1)-set of [n]."""
    cols = tuple(sorted_faces(c.faces_k))
    rows, sparse = boundary_columns(field, cols, all_faces(c.n, c.k - 1))
    dense = [dense_column(field, col, len(rows)) for col in sparse]
    return BoundaryMatrix(ExactMatrix.from_columns(dense, field, nrows=len(rows)),
                          rows, cols, field)

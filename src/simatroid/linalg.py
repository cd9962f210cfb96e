"""Exact linear algebra over a Field, on sparse columns.

Rank, solving, nullspaces, row-space membership and fundamental circuits
all go through one elimination kernel, IncrementalRank, which inserts
columns one at a time.  A column is held in a sparse form chosen by the
field (sparse_column builds it):

* GF(2): an int whose bit i is the entry in row i, reduced by xor;
* GF(p): a dict row -> nonzero residue in [0, p);
* QQ: a dict row -> nonzero int or Fraction.  Entries stay plain ints
  while they are integral, which boundary columns (entries +-1) almost
  always are, so exact arithmetic costs little more than over GF(p).

Deterministic throughout: columns are inserted in the order given, the
pivot of a column is its lowest nonzero row, and no result depends on
set or dict iteration order, so identical inputs give identical echelon
forms, bases, and solutions on every run.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .complexes import _bit_positions
from .fields import Field, Scalar


def sparse_column(field: Field, pairs: Iterable[tuple[int, Scalar]]):
    """The kernel's form of the column with the given (row, field element) pairs."""
    if field.p == 2:
        col = 0
        for i, a in pairs:
            if a:
                col |= 1 << i
        return col
    if field.p:
        return {i: a for i, a in pairs if a}
    return {i: _plain(a) for i, a in pairs if a}


def dense_column(field: Field, col, nrows: int) -> tuple[Scalar, ...]:
    """A column in the kernel's form, or a dict row -> scalar, written out
    as nrows field scalars."""
    if isinstance(col, int):
        return tuple(col >> i & 1 for i in range(nrows))
    out = [field.zero] * nrows
    for i, a in col.items():
        out[i] = field.of(a)
    return tuple(out)


def _plain(a):
    """An integral rational as an int, anything else unchanged."""
    return a.numerator if a.denominator == 1 else a


def _sub_scaled(dst: dict, f, src: dict, p: int | None) -> None:
    """dst -= f * src over GF(p) or (p None) the rationals, dropping zeros."""
    for i, a in src.items():
        x = dst.get(i, 0) - f * a
        if p:
            x %= p
        if x:
            dst[i] = x
        else:
            del dst[i]


def combine(field: Field, terms: Iterable[tuple[object, object]]):
    """The sum of a * col over the (a, col) terms, cols in the kernel's form."""
    if field.p == 2:
        acc = 0
        for a, col in terms:
            if field.of(a):
                acc ^= col
        return acc
    acc: dict = {}
    for a, col in terms:
        _sub_scaled(acc, -a, col, field.p)
    return acc


# The two insertion loops, one for bitsets and one for dicts.  Each
# reduces a column by clearing its lowest row while that row is a pivot
# row; a pivot is lowest at its own row, so the lowest row of the column
# only rises.  A column left nonzero becomes the pivot of its lowest row,
# scaled to a one there.  The combination start, unless None, is followed
# through every step (pivot_combos holds the pivots'); it is only given
# with a single column.  The combination of the last column that reduced
# to zero is returned.  The columns passed in are not modified.

def _insert_bits(pivots: dict, pivot_combos: dict, cols, start, p: int):
    relation = None
    for col in cols:
        combo = start
        while col:
            low = col & -col
            got = pivots.get(low)
            if got is None:
                pivots[low] = col
                if combo is not None:
                    pivot_combos[low] = combo
                break
            col ^= got
            if combo is not None:
                combo ^= pivot_combos[low]
        else:
            relation = combo
    return relation


def _insert_dicts(pivots: dict, pivot_combos: dict, cols, start, p: int | None):
    relation = None
    for col in cols:
        col = dict(col)
        combo = start
        while col:
            row = min(col)
            got = pivots.get(row)
            if got is None:
                lead = col[row]
                if lead != 1:
                    col = _divided(col, lead, p)
                    if combo is not None:
                        combo = _divided(combo, lead, p)
                pivots[row] = col
                if combo is not None:
                    pivot_combos[row] = combo
                break
            f = col[row]
            _sub_scaled(col, f, got, p)
            if combo is not None:
                _sub_scaled(combo, f, pivot_combos[row], p)
        else:
            relation = combo
    return relation


def _divided(vec: dict, lead, p: int | None) -> dict:
    """vec / lead, exactly, over GF(p) or (p None) the rationals."""
    if p:
        inv = pow(lead, p - 2, p)
        return {i: a * inv % p for i, a in vec.items()}
    if lead == -1:
        return {i: -a for i, a in vec.items()}
    return {i: _plain(Fraction(a) / lead) for i, a in vec.items()}


class IncrementalRank:
    """The elimination kernel: grow a span one column at a time.

    A column is given in the form sparse_column builds, or as a dense
    sequence.  add() returns True iff the column enlarged the span; a
    rejected column leaves the state untouched.  With track=True every
    pivot also carries its combination of the added columns, keyed by
    their labels (non-negative ints), so a rejected column yields its
    relation to the columns before it (relation(), relation_support()),
    and any vector in the span its coefficients (express()).
    """

    def __init__(self, field: Field, track: bool = False):
        self.field = field
        self.track = track
        self._gf2 = field.p == 2
        self._insert = _insert_bits if self._gf2 else _insert_dicts
        self._form = int if self._gf2 else dict
        self._pivots: dict = {}      # pivot row (its bit over GF(2)) -> column, oldest first
        self._combos: dict = {}      # pivot row -> combination, when tracking
        self._relation = None

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, col, label: int = 0) -> bool:
        """Insert col; did the span grow?  label names col in the
        combinations when tracking."""
        return self._grows(col, (1 << label if self._gf2 else {label: 1}) if self.track else None)

    def _grows(self, col, start) -> bool:
        """Insert col, following start as its combination; did the span grow?"""
        if not isinstance(col, self._form):
            col = sparse_column(self.field, enumerate(map(self.field.of, col)))
        pivots = self._pivots
        before = len(pivots)
        self._relation = self._insert(pivots, self._combos, (col,), start, self.field.p)
        return len(pivots) > before

    def extend(self, cols) -> None:
        """add() each of cols, given in the kernel's form, in turn; only
        without tracking."""
        if self.track:
            raise ValueError("extend() does not track combinations")
        self._insert(self._pivots, self._combos, cols, None, self.field.p)

    def pop(self) -> None:
        """Undo the most recent add() that enlarged the span."""
        key, _ = self._pivots.popitem()
        self._combos.pop(key, None)

    def reduce(self, col):
        """col minus a combination of the span, up to a nonzero factor:
        zero (falsy) iff col lies in the span.  The state is unchanged."""
        if self._grows(col, None):
            residual = next(reversed(self._pivots.values()))
            self.pop()
            return residual
        return 0 if self._gf2 else {}

    def _scalars(self, combo) -> dict[int, Scalar]:
        if self._gf2:
            return {j: 1 for j in _bit_positions(combo)}
        return {j: self.field.of(a) for j, a in combo.items()}

    def relation(self) -> dict[int, Scalar]:
        """After add() rejected a column (track=True): label -> coefficient,
        one on that column, of the dependency summing to zero."""
        return self._scalars(self._relation)

    def relation_support(self) -> int:
        """The labels with a nonzero coefficient in relation(), as a bitmask."""
        if self._gf2:
            return self._relation
        return sum(1 << j for j in self._relation)

    def express(self, col) -> dict[int, Scalar] | None:
        """Label -> coefficient with col equal to the sum of coefficient times
        column, over pivot columns only, or None when col is outside the
        span (track=True)."""
        if self._grows(col, 0 if self._gf2 else {}):
            self.pop()
            return None
        return {j: self.field.neg(a) for j, a in self._scalars(self._relation).items()}


def column_relations(cols: Sequence,
                     field: Field) -> tuple[list[int], dict[int, dict[int, Scalar]]]:
    """Insert cols in order: the indices of the columns that enlarged the
    span, and for every other column j the relation (coefficient one on j)
    that writes it in terms of the spanning columns before it."""
    inc = IncrementalRank(field, track=True)
    pivots: list[int] = []
    relations: dict[int, dict[int, Scalar]] = {}
    for j, col in enumerate(cols):
        if inc.add(col, j):
            pivots.append(j)
        else:
            relations[j] = inc.relation()
    return pivots, relations


def solve_columns(cols: Sequence, target, field: Field) -> list[Scalar] | None:
    """Exact coefficients x with sum_j x[j] * cols[j] == target, or None.

    Columns and target are dense sequences or sparse_column forms.  The
    solution found is the one on the spanning columns (free coefficients
    set to zero).
    """
    inc = IncrementalRank(field, track=True)
    for j, col in enumerate(cols):
        inc.add(col, j)
    mu = inc.express(target)
    if mu is None:
        return None
    out = [field.zero] * len(cols)
    for j, x in mu.items():
        out[j] = x
    return out


class ExactMatrix:
    """Immutable dense matrix with exact entries."""

    def __init__(self, rows: Iterable[Sequence], field: Field, ncols: int | None = None):
        self.field = field
        self.rows: tuple[tuple[Scalar, ...], ...] = tuple(
            tuple(field.of(a) for a in row) for row in rows
        )
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols does not match rows")
        else:
            if ncols is None:
                raise ValueError("ncols required for a matrix with no rows")
            self.ncols = ncols
        self.nrows = len(self.rows)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], field: Field, nrows: int | None = None) -> "ExactMatrix":
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ValueError("nrows required for a matrix with no columns")
        return cls([[col[i] for col in cols] for i in range(nrows)], field, ncols=len(cols))

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self.rows)

    def column_submatrix(self, indices: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix([[row[j] for j in indices] for row in self.rows],
                           self.field, ncols=len(indices))

    def mul_vector(self, x: Sequence) -> tuple[Scalar, ...]:
        F = self.field
        xs = [F.of(a) for a in x]
        if len(xs) != self.ncols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            acc = F.zero
            for a, b in zip(row, xs):
                if a != 0 and b != 0:
                    acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return tuple(out)

    @cached_property
    def _relations(self) -> tuple[list[int], dict[int, dict[int, Scalar]]]:
        return column_relations([self.column(j) for j in range(self.ncols)], self.field)

    @cached_property
    def _rref(self) -> tuple[tuple[int, ...], tuple[tuple[Scalar, ...], ...]]:
        """Reduced row echelon form: (pivot column indices, reduced rows).
        Row i is one at pivot column c_i and, at each other column j, minus
        the coefficient of c_i in j's relation."""
        F = self.field
        pivots, relations = self._relations
        rows = []
        for c in pivots:
            row = [F.one if j == c else F.zero for j in range(self.ncols)]
            for j, rel in relations.items():
                row[j] = F.neg(rel.get(c, F.zero))
            rows.append(tuple(row))
        zero = (F.zero,) * self.ncols
        return tuple(pivots), tuple(rows) + (zero,) * (self.nrows - len(rows))

    def rank(self) -> int:
        return len(self._relations[0])

    def rref(self) -> tuple[tuple[int, ...], tuple[tuple[Scalar, ...], ...]]:
        return self._rref

    def nullspace_basis(self) -> list[tuple[Scalar, ...]]:
        """One basis vector per free column, in ascending free-column order."""
        return [dense_column(self.field, rel, self.ncols)
                for rel in self._relations[1].values()]

    @cached_property
    def _row_span(self) -> IncrementalRank:
        inc = IncrementalRank(self.field)
        inc.extend([sparse_column(self.field, enumerate(row)) for row in self.rows])
        return inc

    def in_row_space(self, vec: Sequence, field: Field | None = None) -> bool:
        F = self.field
        if field is not None and field != F:
            raise ValueError(f"field mismatch: vector over {field}, matrix over {F}")
        v = [F.of(a) for a in vec]
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return not self._row_span.reduce(v)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ExactMatrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field})"

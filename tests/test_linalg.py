import itertools
import random
from fractions import Fraction

import pytest
from oracles import dense_nullspace, dense_rank, dense_rref, transpose

from simatroid import GF, QQ, gen_random, instance_complex, sorted_faces
from simatroid.chains import boundary_columns
from simatroid.linalg import (ExactMatrix, IncrementalRank, column_relations, dense_column,
                              solve_columns, sparse_column)

FIELDS = [GF(2), GF(3), GF(5), QQ]


def random_rows(rng, nrows, ncols, field):
    if field.is_finite:
        return [[field.of(rng.randrange(field.p)) for _ in range(ncols)] for _ in range(nrows)]
    return [[Fraction(rng.randrange(-4, 5)) for _ in range(ncols)] for _ in range(nrows)]


def rank_by_minors(rows, field):
    """Independent oracle: the largest r with a nonsingular r x r minor."""
    def det(sub):
        total = field.zero
        order = len(sub)
        for perm in itertools.permutations(range(order)):
            sign = 1
            for i in range(order):
                for j in range(i + 1, order):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = field.of(sign)
            for i in range(order):
                term = field.mul(term, sub[i][perm[i]])
            total = field.add(total, term)
        return total

    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for r in range(min(nrows, ncols), 0, -1):
        for ris in itertools.combinations(range(nrows), r):
            for cis in itertools.combinations(range(ncols), r):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if not field.is_zero(det(sub)):
                    return r
    return 0


@pytest.mark.parametrize("field", FIELDS)
def test_rank_against_minor_oracle(field):
    rng = random.Random(1234)
    for _ in range(30):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = random_rows(rng, nrows, ncols, field)
        assert ExactMatrix(rows, field).rank() == rank_by_minors(rows, field)


@pytest.mark.parametrize("field", FIELDS)
def test_rref_structure(field):
    rng = random.Random(7)
    for _ in range(20):
        rows = random_rows(rng, rng.randrange(1, 6), rng.randrange(1, 6), field)
        mat = ExactMatrix(rows, field)
        pivots, reduced = mat.rref()
        assert len(pivots) == mat.rank()
        for i, c in enumerate(pivots):
            assert reduced[i][c] == field.one
            for other in range(len(reduced)):
                if other != i:
                    assert field.is_zero(reduced[other][c])
        assert sorted(pivots) == list(pivots)


@pytest.mark.parametrize("field", FIELDS)
def test_nullspace(field):
    rng = random.Random(99)
    for _ in range(25):
        rows = random_rows(rng, rng.randrange(1, 5), rng.randrange(1, 6), field)
        mat = ExactMatrix(rows, field)
        basis = mat.nullspace_basis()
        assert len(basis) == len(rows[0]) - mat.rank()
        for vec in basis:
            assert all(field.is_zero(x) for x in mat.mul_vector(vec))
        if basis:
            assert ExactMatrix(basis, field).rank() == len(basis)


def test_row_space_membership():
    F = GF(5)
    mat = ExactMatrix([[1, 2, 0], [0, 1, 1]], F)
    assert mat.in_row_space([1, 2, 0])
    assert mat.in_row_space([2, 4, 0])
    combo = [F.add(F.mul(3, a), F.mul(2, b)) for a, b in zip([1, 2, 0], [0, 1, 1])]
    assert mat.in_row_space(combo)
    assert not mat.in_row_space([0, 0, 1])
    with pytest.raises(ValueError):
        mat.in_row_space([1, 2, 0], field=QQ)


@pytest.mark.parametrize("field", FIELDS)
def test_solve_columns(field):
    rng = random.Random(2024)
    for _ in range(40):
        ncols, nrows = rng.randrange(1, 5), rng.randrange(1, 5)
        cols = [col for col in zip(*random_rows(rng, nrows, ncols, field))]
        target = random_rows(rng, 1, nrows, field)[0]
        sol = solve_columns(cols, target, field)
        a = ExactMatrix.from_columns(cols, field, nrows=nrows)
        b = ExactMatrix.from_columns(list(cols) + [tuple(target)], field, nrows=nrows)
        if sol is None:
            # unsolvable iff the target increases the column rank
            assert b.rank() == a.rank() + 1
        else:
            got = [field.zero] * nrows
            for x, col in zip(sol, cols):
                got = [field.add(g, field.mul(x, c)) for g, c in zip(got, col)]
            assert got == list(field.of(t) for t in target)


def test_incremental_rank_matches_matrix():
    rng = random.Random(5)
    for field in FIELDS:
        rows = random_rows(rng, 6, 4, field)
        inc = IncrementalRank(field)
        for i, row in enumerate(rows):
            added = inc.add(row)
            expect = ExactMatrix(rows[:i + 1], field).rank()
            assert inc.rank == expect
            assert added == (expect == ExactMatrix(rows[:i], field).rank() + 1 if i else expect == 1)


def test_constructors_and_accessors():
    F = GF(3)
    m = ExactMatrix([[1, 2, 0], [0, 1, 1]], F)
    assert m.rows[0][1] == 2 and m.column(1) == (2, 1)
    assert ExactMatrix.from_columns([m.column(j) for j in range(3)], F) == m
    assert ExactMatrix([], F, ncols=3).rank() == 0
    assert m.column_submatrix([0, 2]).rank() == 2
    assert m.mul_vector([1, 1, 1]) == (F.of(3), F.of(2))
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [1]], F)


# -- the sparse kernel against the dense oracle -------------------------------

def random_entry(rng, field):
    if field.is_finite:
        return field.of(rng.randrange(1, field.p))
    return Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 1, 1, 2, 3)))


def kernel_cases(field, seed):
    """(nrows, dense columns): random sparse matrices, then the boundary
    matrices of seeded random complexes over their occurring rows."""
    rng = random.Random(seed)
    cases = []
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 10)
        density = rng.choice((0.15, 0.3, 0.6))
        cases.append((nrows, [[random_entry(rng, field) if rng.random() < density else field.zero
                               for _ in range(nrows)] for _ in range(ncols)]))
    for i in range(8):
        c = instance_complex(gen_random(6, 2 + i % 2, "1/2", seed + i))
        rows, cols = boundary_columns(field, sorted_faces(c.faces_k))
        if rows:
            cases.append((len(rows), [dense_column(field, col, len(rows)) for col in cols]))
    return cases


def combination(field, cols, coeffs, nrows):
    out = [field.zero] * nrows
    for x, col in zip(coeffs, cols):
        out = [field.add(o, field.mul(x, a)) for o, a in zip(out, col)]
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_against_dense_oracle(field):
    rng = random.Random(314)
    for nrows, cols in kernel_cases(field, 4000 + (field.p or 0)):
        rows = transpose(cols, nrows)
        rank = dense_rank(rows, field)
        # rank, through dense and sparse input alike
        for form in (cols, [sparse_column(field, enumerate(col)) for col in cols]):
            inc = IncrementalRank(field)
            grew = [inc.add(col) for col in form]
            assert inc.rank == rank == sum(grew)
        mat = ExactMatrix(rows, field, ncols=len(cols))
        assert mat.rref() == dense_rref(rows, field)
        assert mat.nullspace_basis() == dense_nullspace(rows, field, len(cols))
        # nullspace: dimension, A N = 0, independence
        pivots, relations = column_relations(cols, field)
        assert len(pivots) == rank and len(relations) == len(cols) - rank
        null = [dense_column(field, rel, len(cols)) for rel in relations.values()]
        for vec in null:
            assert all(field.is_zero(x) for x in combination(field, cols, vec, nrows))
        assert not null or dense_rank(null, field) == len(null)
        # fundamental circuits: one on the new column, earlier spanning
        # columns elsewhere, and a minimal dependent set
        for j, rel in relations.items():
            assert rel[j] == field.one and all(i == j or (i < j and i in pivots) for i in rel)
            support = [cols[i] for i in rel]
            assert dense_rank(transpose(support, nrows), field) == len(support) - 1
            for drop in range(len(support)):
                rest = support[:drop] + support[drop + 1:]
                assert dense_rank(transpose(rest, nrows), field) == len(rest)
        # solve: A x = b, and None iff b is outside the column span
        for in_span in (True, False):
            if in_span:
                target = combination(field, cols, [random_entry(rng, field) for _ in cols], nrows)
            else:
                target = [random_entry(rng, field) for _ in range(nrows)]
            sol = solve_columns(cols, target, field)
            grows = dense_rank(transpose(cols + [target], nrows), field) > rank
            assert (sol is None) == grows
            if sol is not None:
                assert combination(field, cols, sol, nrows) == [field.of(t) for t in target]
        # row-space membership
        inside = combination(field, rows, [random_entry(rng, field) for _ in rows], len(cols))
        assert mat.in_row_space(inside)
        probe = [random_entry(rng, field) for _ in cols]
        assert mat.in_row_space(probe) == (dense_rank(rows + [probe], field) == rank)


def test_kernel_is_deterministic():
    rng = random.Random(8)
    for field in FIELDS:
        cols = [random_rows(rng, 1, 7, field)[0] for _ in range(9)]
        runs = [column_relations(cols, field) for _ in range(2)]
        assert runs[0] == runs[1]
        assert solve_columns(cols, cols[0], field) == solve_columns(cols, cols[0], field)

import pytest
from oracles import _ridges, _signed_columns, incidence

from simatroid import (ChainVector, GF, GF2, QQ, SimplicialMatroid, boundary, boundary_matrix,
                      build_complex, face, full_complex, gen_random, instance_complex,
                      sorted_faces, vertices)
from simatroid.chains import boundary_columns
from simatroid.complexes import all_faces
from simatroid.linalg import dense_column


def test_boundary_sign_convention():
    c = full_complex(4, 3)
    b = boundary(c, face(1, 2, 3), QQ)
    assert b.coeff(face(2, 3)) == -1
    assert b.coeff(face(1, 3)) == 1
    assert b.coeff(face(1, 2)) == -1
    assert b.coeff(face(1, 4)) == 0
    # over GF(2) the signs collapse to indicators
    b2 = boundary(c, face(1, 2, 3), GF2)
    assert all(a == 1 for _, a in b2.items_lex())


def test_boundary_of_boundary_is_zero():
    for field in (GF2, GF(3), QQ):
        for seed in range(8):
            inst = gen_random(6, 3, "3/5", 600 + seed)
            c = instance_complex(inst)
            for apex in c.skeleton(4):
                outer = boundary(c, apex, field)
                total = ChainVector(field)
                for f, a in outer.items_lex():
                    total = total.add_scaled(boundary(c, f, field), a)
                assert total.is_zero()


@pytest.mark.parametrize("field", [GF2, GF(3), QQ], ids=str)
def test_boundary_columns_match_incidence_oracle(field):
    # k-face columns over the default colex rows, (k+1)-face columns over
    # the ground set, against dense columns signed by incidence alone
    for n, k, density in ((7, 2, "3/5"), (7, 3, "4/5"), (8, 3, "3/4"), (7, 4, "9/10")):
        c = instance_complex(gen_random(n, k, density, 641))
        m = SimplicialMatroid(c, field)
        apexes = sorted_faces(c.skeleton(k + 1))
        assert apexes
        for faces, rows, want_rows in ((m.ground, None, _ridges(c.n, m.ground)),
                                       (apexes, m.ground, m.ground)):
            got_rows, cols = boundary_columns(field, faces, rows)
            assert got_rows == tuple(want_rows)
            assert [dense_column(field, col, len(got_rows)) for col in cols] == \
                [tuple(map(field.of, want)) for want in _signed_columns(faces, want_rows)]
            if rows is None:
                assert [m._cols[f] for f in faces] == cols
            else:
                assert m._apex_cols == list(zip(apexes, cols))


def test_boundary_rejects_non_faces():
    c = build_complex(4, 2, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        boundary(c, face(1, 3), QQ)  # 13 is not a face
    with pytest.raises(ValueError):
        boundary(c, face(2), QQ)


def test_boundary_matrix_grid():
    c = build_complex(4, 2, [(1, 2), (1, 3), (2, 3), (3, 4)])
    bm = boundary_matrix(c, QQ)
    assert bm.row_faces == tuple(all_faces(4, 1))
    assert [vertices(f) for f in bm.col_faces] == [(1, 2), (1, 3), (2, 3), (3, 4)]
    for i, v in enumerate(bm.row_faces):
        for j, f in enumerate(bm.col_faces):
            assert bm.matrix.rows[i][j] == incidence(v, f)


def test_chain_vector_arithmetic():
    F = GF(7)
    a = ChainVector(F, {face(1, 2): 3, face(1, 3): 5})
    b = ChainVector(F, {face(1, 2): 4, face(2, 3): 1})
    s = a.add(b)
    assert s.coeff(face(1, 2)) == 0 and face(1, 2) not in s.support
    assert s.coeff(face(1, 3)) == 5 and s.coeff(face(2, 3)) == 1
    assert a.add_scaled(b, 5).coeff(face(1, 2)) == F.of(3 + 20)
    assert [a.coeff(f) for f in (face(1, 3), face(2, 3), face(1, 2))] == [5, 0, 3]
    assert len(a) == 2


def test_chain_vector_accumulates_pairs():
    F = QQ
    v = ChainVector(F, [(face(1, 2), 1), (face(1, 2), -1), (face(1, 3), 2)])
    assert v.support == {face(1, 3)}


def test_chain_vector_field_mismatch():
    a = ChainVector(GF2, {face(1, 2): 1})
    b = ChainVector(QQ, {face(1, 2): 1})
    with pytest.raises(ValueError):
        a.add(b)
    assert a != b


def test_chain_vector_equality_and_hash():
    x = ChainVector(GF(3), {face(1, 2): -1})
    y = ChainVector(GF(3), {face(1, 2): 2})
    assert x == y and hash(x) == hash(y)

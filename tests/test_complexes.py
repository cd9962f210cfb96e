import itertools
from math import comb

import pytest
from conftest import stacked_faces
from oracles import brute_facets, incidence

from simatroid import (HypercliqueComplex, all_faces, build_complex, face, face_of,
                      face_sort_key, face_text, full_complex, gen_random, instance_complex,
                      sorted_faces, vertices)
from simatroid.complexes import submasks_of_size


def brute_faces(c):
    """Every face of the complex, by checking all vertex subsets directly."""
    out = set()
    for size in range(1, c.n + 1):
        for combo in itertools.combinations(range(1, c.n + 1), size):
            m = face_of(combo)
            if size < c.k or all(
                    face_of(sub) in c.faces_k for sub in itertools.combinations(combo, c.k)):
                out.add(m)
    return out


def small_instances(count, n, k, base_seed, density="1/2"):
    return [instance_complex(gen_random(n, k, density, base_seed + i)) for i in range(count)]


def test_face_round_trip():
    assert face(3, 1, 2) == 0b111
    assert vertices(face(2, 5, 9)) == (2, 5, 9)
    assert face_of([4]) == 0b1000
    assert face_text(face(1, 4, 5)) == "1 4 5"
    for bad in ([], [0], [1, 1], [-2]):
        with pytest.raises(ValueError):
            face_of(bad)


def test_sort_key_is_lexicographic_not_numeric():
    a, b = face(1, 10), face(2, 3)
    assert a > b  # as masks
    assert face_sort_key(a) < face_sort_key(b)
    assert sorted_faces([b, a]) == [a, b]


def test_incidence_signs():
    f = face(1, 2, 3)
    assert incidence(face(2, 3), f) == -1
    assert incidence(face(1, 3), f) == 1
    assert incidence(face(1, 2), f) == -1
    assert incidence(face(1, 2), face(1, 2, 3, 4)) == 0  # two vertices missing
    assert incidence(face(1, 4), f) == 0  # not a subset
    # removing the j-th smallest vertex alternates signs
    g = face(2, 4, 6, 7)
    signs = [incidence(g & ~(1 << (v - 1)), g) for v in vertices(g)]
    assert signs == [-1, 1, -1, 1]


def test_all_faces_lex():
    faces = all_faces(5, 3)
    assert len(faces) == comb(5, 3)
    assert faces == sorted_faces(faces)
    assert faces[0] == face(1, 2, 3) and faces[-1] == face(3, 4, 5)


def test_submasks_of_size():
    got = sorted(submasks_of_size(face(1, 3, 4), 2))
    assert got == sorted([face(1, 3), face(1, 4), face(3, 4)])


def face_test_complexes():
    return (small_instances(12, 6, 2, 300) + small_instances(12, 6, 3, 350)
            + small_instances(6, 7, 4, 370, "3/5")
            + [build_complex(9, 3, stacked_faces(9, 3, s)) for s in range(3)]
            # {3, 5} and every pair with 6 lie in no 3-face
            + [build_complex(6, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5)])])


def test_is_face_and_skeleton_against_brute():
    for c in face_test_complexes():
        expected = brute_faces(c)
        for size in range(1, c.n + 2):
            level = {f for f in expected if f.bit_count() == size}
            assert c.skeleton(size) == level
        for combo_size in range(1, c.n + 1):
            for combo in itertools.combinations(range(1, c.n + 1), combo_size):
                m = face_of(combo)
                assert c.is_face(m) == (m in expected)


def test_walk_reaches_each_face_once():
    """Cut at size d, the walk yields each face of k - 1 to d vertices, bar
    the (k-1)-sets in no k-face, exactly once, with its extension mask."""
    for c in face_test_complexes() + [build_complex(12, 3, stacked_faces(12, 3, s))
                                      for s in range(3)]:
        faces = brute_faces(c)
        ext = {f: sum(1 << i for i in range(c.n) if f | 1 << i in faces and not f >> i & 1)
               for f in faces}
        walked = [(f, ext[f]) for f in faces
                  if f.bit_count() >= c.k or f.bit_count() == c.k - 1 and ext[f]]
        for d in range(c.k - 1, c.n + 2):
            got = list(c._walk(d))  # a list, so a face reached twice shows
            assert sorted(got) == sorted(fe for fe in walked if fe[0].bit_count() <= d), (c, d)


def test_facets_against_brute():
    complexes = (small_instances(15, 6, 2, 400) + small_instances(15, 5, 3, 450, "3/5")
                 + small_instances(8, 7, 4, 470, "3/5")
                 + [build_complex(n, k, []) for n, k in ((2, 2), (5, 2), (6, 3), (7, 4))]
                 + [full_complex(n, k) for n in range(2, 10) for k in range(2, n + 1)]
                 + [build_complex(12, 3, stacked_faces(12, 3, s)) for s in range(4)]
                 # (k-1)-sets in no k-face beside larger facets
                 + [build_complex(5, 2, [(1, 2), (1, 3), (2, 3)]),
                    build_complex(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
                    build_complex(6, 4, [(1, 2, 3, 4), (3, 4, 5, 6)])])
    for c in complexes:
        assert c.facets == brute_facets(c), c


def test_star():
    c = build_complex(5, 3, [(1, 2, 3), (1, 2, 4), (2, 3, 4), (1, 4, 5)])
    assert c.star(face(1, 2)) == {face(1, 2, 3), face(1, 2, 4)}
    assert c.star(face(3, 5)) == frozenset()


def test_full_complex():
    c = full_complex(5, 3)
    assert c.facets == {face(1, 2, 3, 4, 5)}
    for d in range(1, 6):
        assert len(c.skeleton(d)) == comb(5, d)
    assert c.skeleton(6) == frozenset()


def test_validation():
    with pytest.raises(ValueError):
        HypercliqueComplex(0, 2, [])
    with pytest.raises(ValueError):
        HypercliqueComplex(5, 1, [])
    with pytest.raises(ValueError):
        HypercliqueComplex(5, 6, [])
    with pytest.raises(ValueError):
        build_complex(4, 2, [(1, 5)])
    with pytest.raises(ValueError):
        build_complex(4, 2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        build_complex(70, 2, [])


def test_skeleton_dimension_errors():
    c = full_complex(4, 2)
    with pytest.raises(ValueError):
        c.skeleton(0)

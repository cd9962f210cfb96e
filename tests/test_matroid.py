import itertools
import random
from math import comb, factorial

import pytest
from oracles import (boundary_rank, circuits_by_rank, closure, cocircuits_by_rank,
                     duality_by_enumeration, minimal_supports, span_supports)

from simatroid import (GF, GF2, QQ, GuardExceeded, SimplicialMatroid, build_complex, face,
                      full_complex, gen_random, instance_complex, matroid_circuits_exhaustive,
                      matroid_cocircuits_exhaustive, verify_full_duality, vertices)
from simatroid import matroid
from simatroid.linalg import column_relations, dense_column
from simatroid.matroid import (_coboundaries_map_to_cycles, _complement_sign, _dual_columns,
                               _full_columns, _minimal_supports, _span_supports)


def random_matroid(seed, n, k, field, density="1/2"):
    return SimplicialMatroid(instance_complex(gen_random(n, k, density, seed)), field)


@pytest.mark.parametrize("field", [GF2, GF(3), GF(5), QQ])
def test_rank_matches_dense_matrix(field):
    for seed in range(12):
        m = random_matroid(200 + seed, 6, 2 + seed % 2, field)
        assert m.rank == boundary_rank(m.complex.n, field, m.complex.faces_k)


@pytest.mark.parametrize("field", [GF2, GF(3), QQ])
def test_full_complex_rank_closed_form(field):
    # the full simplex is acyclic over every field, so the k-boundaries of
    # the full complex span a space of dimension C(n-1, k-1)
    for n in range(2, 9):
        for k in range(2, n + 1):
            assert SimplicialMatroid(full_complex(n, k), field).rank == comb(n - 1, k - 1)


def test_rank_of_subsets_matches_submatrix():
    rng = random.Random(31)
    m = random_matroid(77, 6, 2, GF2, "3/5")
    for _ in range(25):
        sub = frozenset(f for f in m.ground if rng.random() < 0.5)
        assert m.rank_of(sub) == boundary_rank(m.complex.n, GF2, sub)
    with pytest.raises(ValueError):
        m.rank_of([face(1, 2, 3)])


def test_rank_basic_properties():
    for seed in range(10):
        m = random_matroid(500 + seed, 5, 3, GF(3), "7/10")
        g = list(m.ground)
        assert m.rank_of([]) == 0
        for f in g:
            assert m.rank_of([f]) == 1  # boundary columns are never zero
        # monotonicity along a random chain
        rng = random.Random(seed)
        rng.shuffle(g)
        prev = 0
        for i in range(len(g) + 1):
            r = m.rank_of(g[:i])
            assert prev <= r <= prev + 1
            prev = r


def test_closure_properties():
    m = random_matroid(42, 6, 2, QQ, "3/5")
    rng = random.Random(4)
    for _ in range(10):
        sub = frozenset(f for f in m.ground if rng.random() < 0.4)
        cl = closure(m, sub)
        assert sub <= cl
        assert m.rank_of(cl) == m.rank_of(sub)
        assert closure(m, cl) == cl


def test_independent_and_circuits_definition():
    for field in (GF2, GF(3)):
        m = random_matroid(900, 6, 2, field, "3/5")
        for circuit in m.circuits_brute():
            assert m.rank_of(circuit) < len(circuit)
            for f in circuit:
                assert m.rank_of(circuit - {f}) == len(circuit) - 1


def test_circuits_brute_matches_rank_oracle():
    for field in (GF2, GF(3)):
        for seed in range(8):
            m = random_matroid(300 + seed, 5, 2, field, "3/5")
            assert set(m.circuits_brute()) == circuits_by_rank(m)
        for seed in range(6):
            m = random_matroid(350 + seed, 6, 3, field, "11/20")
            assert set(m.circuits_brute()) == circuits_by_rank(m)


def oracle_cases(field):
    """Random matroids, and K5 to K7 with K7 capped at four faces: over
    GF(3) and GF(5) they fall on both sides of the walk/search choice."""
    cases = [(random_matroid(1900 + seed, 5 + seed % 2, 2 + seed % 2, field, "1/2"), None)
             for seed in range(6)]
    cases += [(SimplicialMatroid(full_complex(n, 2), field), None) for n in (5, 6)]
    return cases + [(SimplicialMatroid(full_complex(7, 2), field), 4)]


@pytest.mark.parametrize("field", [GF2, GF(3), GF(5), QQ], ids=str)
def test_enumerator_matches_rank_oracle(field, monkeypatch):
    used = set()
    for name, tag in (("_span_supports", "walk"), ("_independent_set_circuits", "search")):
        real = getattr(matroid, name)
        monkeypatch.setattr(matroid, name,
                            lambda *args, real=real, tag=tag: used.add(tag) or real(*args))
    for m, cap in oracle_cases(field):
        if cap is None:
            circuits = circuits_by_rank(m)
            assert set(m.circuits_brute()) == circuits == matroid_circuits_exhaustive(m)
            assert matroid_cocircuits_exhaustive(m) == cocircuits_by_rank(m)
        assert set(m.circuits_brute(max_size=cap or 3)) == circuits_by_rank(m, cap or 3)
    assert used == ({"walk", "search"} if field.is_finite else {"search"})


def cycles_of_complete_graph(n):
    return sum(comb(n, size) * factorial(size - 1) // 2 for size in range(3, n + 1))


def test_full_gf2_families_never_search(monkeypatch):
    # over GF(2) the span walk, 2^nullity vectors, is never longer than the search
    def no_search(*args):
        raise AssertionError("the independent-set search ran")

    monkeypatch.setattr(matroid, "_independent_set_circuits", no_search)
    for m in [random_matroid(2100 + seed, 6, 2 + seed % 2, GF2, "1/2") for seed in range(6)]:
        assert set(m.circuits_brute()) == matroid_circuits_exhaustive(m)
        matroid_cocircuits_exhaustive(m)
    k6 = SimplicialMatroid(full_complex(6, 2), GF2)
    assert len(k6.circuits_brute()) == cycles_of_complete_graph(6)


def test_k7_over_gf3_takes_the_search():
    # 3^15 span vectors exceed the 2^21 subsets: the search answers
    m = SimplicialMatroid(full_complex(7, 2), GF(3))
    assert len(matroid_circuits_exhaustive(m)) == cycles_of_complete_graph(7)


def test_exhaustive_guard_counts_the_chosen_work(monkeypatch):
    m = SimplicialMatroid(full_complex(5, 2), QQ)    # 10 edges
    for family in (matroid_circuits_exhaustive, matroid_cocircuits_exhaustive):
        with pytest.raises(GuardExceeded, match=r"^circuit enumeration over 10 elements needs "
                                                r"1023 subsets, above the limit of 32$"):
            family(m, 2 ** 5)
    m = SimplicialMatroid(full_complex(6, 2), GF(3))     # rank 5: 3^5 row-space vectors
    with pytest.raises(GuardExceeded, match=r"needs 243 vectors, above the limit of 100$"):
        matroid_cocircuits_exhaustive(m, 100)
    # over QQ the default limit of 2^22 admits 22 faces and refuses 23
    monkeypatch.setattr(matroid, "_independent_set_circuits", lambda *args: set())
    faces = sorted(full_complex(7, 2).faces_k)
    for size, admitted in ((22, True), (23, False)):
        c = build_complex(8, 2, [vertices(f) for f in faces] + [(1, 8), (2, 8)][:size - 21])
        m = SimplicialMatroid(c, QQ)
        assert len(m.ground) == size
        if admitted:
            assert matroid_circuits_exhaustive(m) == set()
        else:
            with pytest.raises(GuardExceeded, match="8388607 subsets"):
                matroid_circuits_exhaustive(m)


def test_circuits_brute_size_cap():
    m = random_matroid(123, 6, 2, GF2, "3/4")
    all_circuits = m.circuits_brute()
    capped = m.circuits_brute(max_size=3)
    assert set(capped) == {c for c in all_circuits if len(c) <= 3}


def test_circuits_brute_guard():
    m = SimplicialMatroid(full_complex(7, 2), GF2)  # 21 edges
    with pytest.raises(GuardExceeded):
        m.circuits_brute(max_ground=20)


def test_is_cocircuit_against_exhaustive_family():
    for field in (GF2, GF(3)):
        for seed in range(6):
            m = random_matroid(700 + seed, 5, 2, field, "3/5")
            family = matroid_cocircuits_exhaustive(m)
            ground = list(m.ground)
            for size in range(1, len(ground) + 1):
                for cand in itertools.combinations(ground, size):
                    assert m.is_cocircuit(cand) == (frozenset(cand) in family)


def test_cocircuits_exhaustive_rational_matches_gf3():
    # this matroid is regular, so the families coincide across fields
    inst = gen_random(5, 2, "1/2", 64)
    c = instance_complex(inst)
    got_q = matroid_cocircuits_exhaustive(SimplicialMatroid(c, QQ))
    got_3 = matroid_cocircuits_exhaustive(SimplicialMatroid(c, GF(3)))
    assert got_q == got_3


def test_small_circuits():
    m = random_matroid(808, 6, 3, GF(3), "7/10")
    for sc in m.small_circuits():
        assert sc.apex.bit_count() == 4
        assert sc.members == sc.vector.support
        assert all(f.bit_count() == 3 for f in sc.members)
        assert len(sc.members) == 4
        assert m.is_dependency(sc.vector)
        assert boundary_rank(m.complex.n, m.field, sc.members) == 3


def test_duality_validation():
    with pytest.raises(ValueError):
        verify_full_duality(4, 3, GF2)
    with pytest.raises(ValueError):
        verify_full_duality(3, 2, GF2)
    assert verify_full_duality(8, 3, GF2)
    assert verify_full_duality(5, 2, GF2)
    assert verify_full_duality(4, 2, QQ)


def duality_bases(field, max_span):
    """(basis, pivots) of the row space and of the nullspace of every full
    matroid of the complement-duality acceptance check (4 <= n <= 6), each
    reduced at its pivots, where p^dim <= max_span.  The row space is the
    nullspace of the dual columns."""
    for n in range(4, 7):
        for k in range(2, n - 1):
            m = SimplicialMatroid(full_complex(n, k), field)
            cols = [m._cols[f] for f in m.ground]
            for relations in (column_relations(_dual_columns(cols, field), field)[1],
                              column_relations(cols, field)[1]):
                basis = [dense_column(field, rel, len(cols)) for rel in relations.values()]
                if field.p ** len(basis) <= max_span:
                    yield basis, list(relations)


def random_basis(rng, p, dim, width, reduced):
    """dim random vectors over GF(p), about half their entries nonzero; if
    reduced, each is one at its own pivot and zero at the others, the
    pivots drawn in random order."""
    pivots = rng.sample(range(width), dim)
    basis = []
    for c in pivots:
        row = [rng.randrange(1, p) if rng.random() < 0.5 else 0 for _ in range(width)]
        if reduced:
            for j in pivots:
                row[j] = int(j == c)
        basis.append(tuple(row))
    return basis, pivots


def test_minimal_supports_match_pairwise_oracle():
    """Every full matroid of the complement-duality acceptance check."""
    for field, max_span in ((GF2, 1 << 10), (GF(3), 3 ** 10), (GF(5), 5 ** 6)):
        for basis, pivots in duality_bases(field, max_span):
            supports = _span_supports(basis, field)
            assert supports == span_supports(basis, field.p)
            assert (sorted(_minimal_supports(basis, pivots, supports, field))
                    == sorted(minimal_supports(supports)))


@pytest.mark.parametrize("field", [GF2, GF(3), GF(5)], ids=str)
def test_gray_walk_matches_recursive_oracle(field):
    rng = random.Random(f"gray walk {field}")
    for trial in range(60):
        dim = rng.randrange(7 if field.p == 2 else 5)
        width = max(dim, 1) + rng.randrange(8)
        basis, pivots = random_basis(rng, field.p, dim, width, reduced=trial % 3 > 0)
        supports = _span_supports(basis, field)
        assert supports == span_supports(basis, field.p)
        if trial % 3 > 0:
            assert (sorted(_minimal_supports(basis, pivots, supports, field))
                    == sorted(minimal_supports(supports)))


def test_duality_guard_counts_faces_first(monkeypatch):
    assert verify_full_duality(7, 4, GF2)
    assert verify_full_duality(6, 3, GF(3))
    # C(31, 3) = 4495 faces is refused before any column is built
    monkeypatch.setattr(matroid, "_full_columns", None)
    with pytest.raises(GuardExceeded, match=r"^duality check needs C\(31, 3\) = 4495 faces, "
                                            r"above the limit of 4096 faces$"):
        verify_full_duality(31, 3, QQ)
    with pytest.raises(GuardExceeded, match=r"C\(64, 32\) = 1832624140942590534 faces"):
        verify_full_duality(64, 32, GF2)


def test_complement_sign_is_the_inversion_parity():
    for n in range(1, 9):
        for f in range(1 << n):
            order = [v for v in range(n) if f >> v & 1] + [v for v in range(n) if not f >> v & 1]
            inversions = sum(a > b for a, b in itertools.combinations(order, 2))
            assert _complement_sign(f) == (-1) ** inversions, (n, bin(f))


def duality_cases(field):
    """Every (n, k) with 4 <= n <= 8 that the enumeration oracle decides
    within 2^16 span vectors (GF(p), span dimension C(n-1, k-1)) or 2^16
    subsets (QQ)."""
    return [(n, k) for n in range(4, 9) for k in range(2, n - 1)
            if (field.p ** comb(n - 1, k - 1) if field.is_finite else 2 ** comb(n, k)) <= 1 << 16]


@pytest.mark.parametrize("field", [GF2, GF(3), GF(5), QQ], ids=str)
def test_duality_witness_matches_enumeration_oracle(field):
    cases = duality_cases(field)
    assert len(cases) >= 5
    for n, k in cases:
        assert verify_full_duality(n, k, field) == duality_by_enumeration(n, k, field, 1 << 16)


@pytest.mark.parametrize("field", [GF2, GF(3), GF(5), QQ], ids=str)
def test_unsigned_complement_fails_the_boundary_check(field):
    """The negative control: without the signs the mapped coboundaries are
    not cycles, over every field but GF(2), where signs do not matter."""
    for n in range(4, 9):
        for k in range(2, n - 1):
            cols = _full_columns(field, n, n - k)
            assert _coboundaries_map_to_cycles(field, n, k, cols, _complement_sign)
            unsigned = _coboundaries_map_to_cycles(field, n, k, cols, lambda f: 1)
            assert unsigned == (field == GF2), (n, k)

import time
from itertools import combinations

import pytest

from conftest import (EXAMPLE3_TRIPLES, PROJECTIVE_TRIPLES, every_k3_complex_on_five_vertices,
                      full_minus_pair, graph_corpus, k3_corpus, stacked_faces)
from oracles import decomposable_inside, strongly_triangulable_by_circuits

from simatroid import (CertificateError, ChainVector, DPerfectCertificate, GF, GF2,
                      GuardExceeded, QQ,
                      SimplicialMatroid, TriangulationCertificate, build_complex,
                      check_chordal_graph, circuit_vector, face, find_dperfect_sequence,
                      full_complex, gen_projective_plane, gen_prop54, instance_complex,
                      is_strongly_triangulable_brute, is_triangulable,
                      matroid_circuits_exhaustive, simplicial_faces, sorted_faces,
                      strong_decompose, verify_decomposition, vertices)
from simatroid import elimination
from simatroid.complexes import submasks_of_size
from simatroid.linalg import solve_columns, sparse_column
from simatroid.triangulate import _scanned_vertex_sets, _triangulable_on

FIELDS = [GF2, GF(3), GF(5), QQ]

CHORD4 = [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]


def chord4_matroid(field):
    return SimplicialMatroid(build_complex(4, 2, CHORD4), field)


def cycle_target(field):
    one = field.one
    return ChainVector(field, {face(1, 2): one, face(2, 3): one, face(3, 4): one,
                              face(1, 4): field.neg(one)})


def test_circuit_vector_normalization():
    m = chord4_matroid(QQ)
    vec = circuit_vector(m, [face(1, 2), face(1, 3), face(2, 3)])
    assert vec.coeff(face(1, 2)) == 1
    assert vec.coeff(face(1, 3)) == -1
    assert vec.coeff(face(2, 3)) == 1
    over2 = circuit_vector(chord4_matroid(GF2), [face(1, 2), face(1, 3), face(2, 3)])
    assert all(x == 1 for _, x in over2.items_lex())


def test_circuit_vector_rejects_non_circuits():
    m = chord4_matroid(QQ)
    with pytest.raises(ValueError):
        circuit_vector(m, [face(1, 2), face(2, 3)])  # independent
    with pytest.raises(ValueError):
        circuit_vector(m, [face(1, 2), face(1, 3), face(2, 3), face(3, 4)])  # has extra face
    with pytest.raises(ValueError):
        circuit_vector(m, [])


def test_strong_decompose_worked_example():
    for field, coeff in ((QQ, -1), (GF(5), 4), (GF2, 1)):
        m = chord4_matroid(field)
        cert = find_dperfect_sequence(m.complex, field)
        result = strong_decompose(m, cycle_target(field), cert)
        assert result.terms == ((face(1, 2, 3), field.of(coeff)),
                                (face(1, 3, 4), field.of(coeff)))
        assert result.target == cycle_target(field)


def test_strong_decompose_validates_inputs():
    m = chord4_matroid(QQ)
    cert = find_dperfect_sequence(m.complex, QQ)
    with pytest.raises(ValueError):
        strong_decompose(m, ChainVector(QQ, {}), cert)
    with pytest.raises(ValueError):
        strong_decompose(m, ChainVector(QQ, {face(1, 2): 1}), cert)  # not a dependency
    with pytest.raises(ValueError):
        strong_decompose(m, cycle_target(GF2), cert)  # wrong field
    broken = DPerfectCertificate(cert.sequence[:-1], cert.cocircuits[:-1])
    with pytest.raises(CertificateError):
        strong_decompose(m, cycle_target(QQ), broken)


def test_strong_decompose_covers_all_circuits():
    c = full_complex(5, 2)
    cert = find_dperfect_sequence(c, GF2)
    assert cert is not None
    m = SimplicialMatroid(c, GF2)
    circuits = matroid_circuits_exhaustive(m)
    assert len(circuits) > 10
    for circuit in circuits:
        result = strong_decompose(m, circuit_vector(m, circuit), cert)
        assert len(result) >= 1


def test_strong_decompose_verifies_a_peel_once_per_matroid(monkeypatch):
    c = full_complex(5, 2)
    cert = find_dperfect_sequence(c, GF(3))
    m = SimplicialMatroid(c, GF(3))
    targets = [circuit_vector(m, z) for z in sorted(matroid_circuits_exhaustive(m), key=sorted)]
    calls = []
    real = elimination._verify_peel
    monkeypatch.setattr(elimination, "_verify_peel", lambda *args: calls.append(1) or real(*args))
    for target in targets[:5]:
        strong_decompose(m, target, cert)
    assert len(calls) == 1
    # a certificate that fails is checked again on every call, and a good
    # peel recorded before does not let it through
    rotated = DPerfectCertificate(cert.sequence, cert.cocircuits[1:] + cert.cocircuits[:1])
    for _ in range(2):
        with pytest.raises(CertificateError):
            strong_decompose(m, targets[0], rotated)
    assert len(calls) == 3
    strong_decompose(m, targets[0], cert)
    listed = DPerfectCertificate(list(cert.sequence), [set(st) for st in cert.cocircuits])
    strong_decompose(m, targets[0], listed)
    assert len(calls) == 3
    # the peel the CLI finds on its own matroid is recorded there
    m = SimplicialMatroid(c, GF(3))
    peel = elimination._peel(m)
    strong_decompose(m, targets[0], peel)
    assert peel == cert and len(calls) == 4


def test_verify_decomposition_rejections():
    m = chord4_matroid(QQ)
    target = cycle_target(QQ)
    good = ((face(1, 2, 3), -1), (face(1, 3, 4), -1))
    verify_decomposition(m, TriangulationCertificate(target, good))
    cases = [
        TriangulationCertificate(target, ((face(1, 2, 3), 0), (face(1, 3, 4), -1))),
        TriangulationCertificate(target, ((face(1, 2, 3), -1), (face(1, 2, 3), -1))),
        TriangulationCertificate(target, ((face(1, 2, 3), -1),)),
        TriangulationCertificate(target, ((face(1, 2), -1), (face(1, 3, 4), -1))),
        TriangulationCertificate(ChainVector(QQ, {}), good),
        TriangulationCertificate(cycle_target(GF2), good),
    ]
    for cert in cases:
        with pytest.raises(CertificateError):
            verify_decomposition(m, cert)


def test_verify_decomposition_cover_must_match_span():
    # in the full complex on [4] the triangle dependency also equals a
    # three-term combination whose apexes reach vertex 4
    m = SimplicialMatroid(full_complex(4, 2), QQ)
    target = circuit_vector(m, [face(1, 2), face(1, 3), face(2, 3)])
    spread = ((face(1, 2, 4), -1), (face(1, 3, 4), 1), (face(2, 3, 4), -1))
    with pytest.raises(CertificateError, match="cover"):
        verify_decomposition(m, TriangulationCertificate(target, spread))
    verify_decomposition(
        m, TriangulationCertificate(target, ((face(1, 2, 3), -1),)))


def test_is_triangulable():
    assert is_triangulable(chord4_matroid(GF2))
    assert is_triangulable(chord4_matroid(QQ))
    bare_cycle = SimplicialMatroid(
        build_complex(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)]), GF2)
    assert not is_triangulable(bare_cycle)
    free = SimplicialMatroid(build_complex(4, 2, [(1, 2), (3, 4)]), QQ)
    assert is_triangulable(free)  # no dependencies at all


def test_strongly_triangulable_small_cases():
    assert is_strongly_triangulable_brute(chord4_matroid(GF2))
    assert is_strongly_triangulable_brute(chord4_matroid(QQ))
    bare_cycle = SimplicialMatroid(
        build_complex(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)]), GF2)
    assert not is_strongly_triangulable_brute(bare_cycle)
    assert is_strongly_triangulable_brute(SimplicialMatroid(full_complex(5, 2), GF2))


def test_strongly_triangulable_guards():
    for field in (GF2, QQ):
        assert is_strongly_triangulable_brute(SimplicialMatroid(full_complex(5, 2), field))
    # a peel decides before any scan or guard
    t0 = time.perf_counter()
    assert is_strongly_triangulable_brute(SimplicialMatroid(full_complex(12, 3), GF2))
    assert is_strongly_triangulable_brute(
        SimplicialMatroid(build_complex(10, 3, stacked_faces(10, 3, 1)), QQ))
    assert time.perf_counter() - t0 < 1.0
    # no peel: the scan over vertex sets is the one guard, sized before it starts
    m = SimplicialMatroid(build_complex(18, 3, full_minus_pair(copies=3)), GF2)
    with pytest.raises(GuardExceeded, match=r"scan of 2\^18 = 262144 vertex sets, "
                                            r"above the limit of 65536$"):
        is_strongly_triangulable_brute(m)
    for field in (GF2, QQ):
        c = build_complex(12, 3, full_minus_pair(copies=2))
        assert simplicial_faces(c) == []
        assert is_strongly_triangulable_brute(SimplicialMatroid(c, field))
    # 18 edges, 21 triangles inside one circuit's vertices: 2^21 apex subsets
    inst = graph_corpus()[48]
    m = SimplicialMatroid(instance_complex(inst), QQ)
    assert is_strongly_triangulable_brute(m) == check_chordal_graph(inst.faces, inst.n)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_strong_check_matches_circuit_oracle(field):
    """The rank-only check equals the circuit-enumerating oracle wherever
    the oracle decides, on every k = 3 complex on five vertices, the ten
    peel-less exceptions, the Prop. 5.4 family and the seeded corpora; on
    graphs it is chordality."""
    graphs = [instance_complex(inst) for inst in graph_corpus()[:100]]
    for c in graphs:
        assert is_strongly_triangulable_brute(SimplicialMatroid(c, field)) == \
            check_chordal_graph(c.faces_k, c.n)
    small = [c for c in graphs[:40] + [instance_complex(inst) for inst in k3_corpus()[:24]]
             if len(c.faces_k) <= 12]
    props = [gen_prop54(n, k) for n, k in ((5, 2), (6, 2), (6, 3), (7, 3), (7, 4))]
    exceptions = [build_complex(6, 3, full_minus_pair(t)) for t in combinations(range(1, 7), 3)
                  if 1 in t]
    decided = 0
    for c in every_k3_complex_on_five_vertices() + exceptions + props + small:
        m = SimplicialMatroid(c, field)
        got = is_strongly_triangulable_brute(m)
        if c in exceptions:
            assert got and simplicial_faces(c) == []
        if c in props:
            assert not got
        # over the rationals the oracle enumerates independent subsets:
        # about a second on each 18-face exception
        if field == QQ and len(c.faces_k) > 12:
            continue
        try:
            want = strongly_triangulable_by_circuits(m, 1 << 12)
        except GuardExceeded:
            continue
        assert got == want
        decided += 1
    assert decided >= 1075


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_scan_filter_keeps_the_answer(field):
    """Skipping the vertex sets with a vertex in fewer than two faces inside
    gives the answer of the scan over every vertex set, on every k = 3
    complex on five vertices, the ten peel-less exceptions and the
    Prop. 5.4 family."""
    exceptions = [build_complex(6, 3, full_minus_pair(t)) for t in combinations(range(1, 7), 3)
                  if 1 in t]
    props = [gen_prop54(n, k) for n, k in ((5, 2), (6, 2), (6, 3), (7, 3), (7, 4), (8, 3))]
    failing = 0
    for c in every_k3_complex_on_five_vertices() + exceptions + props:
        m = SimplicialMatroid(c, field)
        span = 0
        for f in m.ground:
            span |= f
        every = [w for size in range(c.k + 1, span.bit_count())
                 for w in submasks_of_size(span, size)]
        scanned = list(_scanned_vertex_sets(m, span))
        assert set(scanned) <= set(every)
        want = all(_triangulable_on(m, w) for w in every)
        assert all(_triangulable_on(m, w) for w in scanned) == want
        failing += not want
    assert failing >= len(props)


def test_strongly_triangulable_matches_enumeration_oracle():
    # the oracle's limits keep it near a second; it decides every pair here
    small = [inst for inst in graph_corpus()[:40] + k3_corpus()[:24] if len(inst.faces) <= 12]
    complexes = [instance_complex(inst) for inst in small] + [
        gen_prop54(5, 2), gen_prop54(6, 3), gen_prop54(7, 3),
        build_complex(7, 3, stacked_faces(7, 3, 1))]
    decided = 0
    for c in complexes:
        for field in (GF2, GF(3), GF(5), QQ):
            m = SimplicialMatroid(c, field)
            got = is_strongly_triangulable_brute(m)
            if c.k == 2:
                assert got == check_chordal_graph(c.faces_k, c.n)
            want = True
            for circuit in sorted(matroid_circuits_exhaustive(m), key=sorted):
                answer = decomposable_inside(c, field, circuit, 512, 512)
                if answer is False:
                    want = False
                    break
                if answer is None:
                    want = None
            if want is not None:
                assert got == want
                decided += 1
    assert decided >= 200


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_any_span_solution_covers_the_circuit(field):
    # the lemma behind is_strongly_triangulable_brute: apexes inside the
    # circuit's vertex set W with nonzero coefficients cover exactly W
    complexes = [build_complex(4, 2, CHORD4), full_complex(5, 2),
                 build_complex(7, 3, stacked_faces(7, 3, 1)), build_complex(9, 3, EXAMPLE3_TRIPLES)]
    for c in complexes:
        m = SimplicialMatroid(c, field)
        pos = {f: i for i, f in enumerate(m.ground)}
        circuits = matroid_circuits_exhaustive(m)
        assert circuits
        for circuit in circuits:
            want = 0
            for f in circuit:
                want |= f
            apexes = [(x, col) for x, col in m._apex_cols if x & want == x]
            z = circuit_vector(m, circuit)
            sol = solve_columns([col for _, col in apexes],
                                sparse_column(field, [(pos[f], a) for f, a in z.items_lex()]),
                                field)
            assert sol is not None, "a complex with a peel is strongly triangulable"
            terms = tuple((x, a) for (x, _), a in zip(apexes, sol) if not field.is_zero(a))
            # checks the sum, and that the apexes cover exactly W
            verify_decomposition(m, TriangulationCertificate(z, terms))


def test_projective_plane_generator():
    c = gen_projective_plane()
    assert sorted_faces(c.faces_k) == [face(*t) for t in PROJECTIVE_TRIPLES]
    assert SimplicialMatroid(c, GF2).rank == 9
    assert SimplicialMatroid(c, QQ).rank == 10
    assert not is_triangulable(SimplicialMatroid(c, GF2))
    assert is_triangulable(SimplicialMatroid(c, QQ))


def test_prop54_wheel_case():
    c = gen_prop54(5, 2)
    assert {vertices(f) for f in c.faces_k} == {
        (1, 2), (1, 3), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)}
    m = SimplicialMatroid(c, GF2)
    assert is_triangulable(m)
    assert not is_strongly_triangulable_brute(m)


def test_prop54_bounds():
    with pytest.raises(ValueError):
        gen_prop54(4, 2)
    with pytest.raises(ValueError):
        gen_prop54(6, 4)
    gen_prop54(7, 4)  # internal consistency asserts run on construction

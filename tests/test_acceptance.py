"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s, the default here,
to see them) and then asserts, so a red criterion is also a red test.
"""

import time

from conftest import (EXAMPLE3_FACETS, EXAMPLE3_SEQUENCE, EXAMPLE3_TEXT, full_corpus,
                      graph_corpus, k3_corpus, seq_masks)

from simatroid import (GF, GF2, QQ, SimplicialMatroid, check_basic_linear_sequence,
                      check_chordal_graph, check_superdense, check_supersolvable,
                      circuit_vector, find_dperfect_sequence, format_decomposition,
                      format_dperfect, format_superdense, gen_projective_plane, gen_prop54,
                      instance_complex, is_strongly_triangulable_brute, is_triangulable,
                      parse_decomposition, parse_dperfect, parse_instance, parse_superdense,
                      simplicial_faces, strong_decompose, verify_decomposition,
                      verify_dperfect, verify_full_duality, verify_superdense, vertices)

GF3 = GF(3)
GF5 = GF(5)


def _report(num: int, slug: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {num:02d} ({slug}) failed"


def _check(fn) -> bool:
    try:
        fn()
        return True
    except Exception:
        return False


def _brute_circuits(m, k):
    if len(m.ground) <= 22:
        return m.circuits_brute()
    return m.circuits_brute(max_size=k + 3, max_ground=30)


def test_01_worked_example():
    t0 = time.perf_counter()
    inst = parse_instance(EXAMPLE3_TEXT)
    c = instance_complex(inst)
    ok = {vertices(f) for f in c.skeleton(4)} == {(1, 2, 4, 5), (1, 3, 6, 7), (2, 3, 8, 9)}
    ok &= c.skeleton(5) == frozenset()
    ok &= len(c.facets) == 22
    ok &= {vertices(f) for f in c.facets} == set(EXAMPLE3_FACETS)
    ok &= SimplicialMatroid(c, GF2).rank == 10
    ok &= SimplicialMatroid(c, QQ).rank == 10
    seq = seq_masks(EXAMPLE3_SEQUENCE)
    ok &= check_basic_linear_sequence(c, GF2, seq)
    ok &= check_basic_linear_sequence(c, QQ, seq)
    cert = find_dperfect_sequence(c, GF2)
    ok &= cert is not None and _check(lambda: verify_dperfect(c, GF2, cert))
    ok &= time.perf_counter() - t0 < 1.0
    _report(1, "worked-example", ok)


def test_02_field_sensitive_plane():
    t0 = time.perf_counter()
    c = gen_projective_plane()
    ok = len(c.faces_k) == 10
    ok &= simplicial_faces(c) == []
    ok &= find_dperfect_sequence(c, GF2) is None
    mq = SimplicialMatroid(c, QQ)
    ok &= mq.rank == 10
    ok &= mq.circuits_brute() == []
    ok &= check_supersolvable(mq)
    m2 = SimplicialMatroid(c, GF2)
    ok &= m2.rank == 9
    circuits = m2.circuits_brute()
    ok &= len(circuits) == 1 and circuits[0] == frozenset(c.faces_k)
    ok &= not is_triangulable(m2)
    ok &= time.perf_counter() - t0 < 1.0
    _report(2, "field-sensitive-plane", ok)


def test_03_chordal_peel_equivalence():
    t0 = time.perf_counter()
    corpus = graph_corpus()
    assert len(corpus) >= 500
    mismatches = 0
    for inst in corpus:
        chordal = check_chordal_graph([vertices(f) for f in inst.faces], inst.n)
        peelable = find_dperfect_sequence(instance_complex(inst), GF2) is not None
        mismatches += chordal != peelable
    ok = mismatches == 0 and time.perf_counter() - t0 < 60.0
    _report(3, "chordal-peel-equivalence", ok)


def test_04_peel_superdense_equivalence():
    t0 = time.perf_counter()
    corpus = full_corpus()
    assert len(corpus) >= 700
    mismatches = 0
    for inst in corpus:
        c = instance_complex(inst)
        m = SimplicialMatroid(c, GF2)
        peelable = find_dperfect_sequence(c, GF2) is not None
        dense = check_superdense(m) is not None
        mismatches += peelable != dense
    ok = mismatches == 0 and time.perf_counter() - t0 < 300.0
    _report(4, "peel-superdense-equivalence", ok)


def test_05_circuit_decomposition():
    failures = 0
    decomposed = 0
    for inst in full_corpus():
        c = instance_complex(inst)
        cert = find_dperfect_sequence(c, GF2)
        if cert is None:
            continue
        m = SimplicialMatroid(c, GF2)
        for circuit in _brute_circuits(m, inst.k):
            decomposed += 1
            failures += not _check(
                lambda: strong_decompose(m, circuit_vector(m, circuit), cert))
    ok = failures == 0 and decomposed > 5000
    _report(5, "circuit-decomposition", ok)


def test_06_smallest_circuits():
    checked = 0
    violations = 0
    for inst in full_corpus():
        if len(inst.faces) > 18:
            continue
        checked += 1
        m = SimplicialMatroid(instance_complex(inst), GF2)
        circuits = m.circuits_brute()
        if any(len(cir) < inst.k + 1 for cir in circuits):
            violations += 1
        smallest = {cir for cir in circuits if len(cir) == inst.k + 1}
        if smallest != {sc.members for sc in m.small_circuits()}:
            violations += 1
    ok = violations == 0 and checked > 500
    _report(6, "smallest-circuits", ok)


def test_07_complement_duality():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 7):
        for k in range(2, n - 1):
            for field in (GF2, GF3):
                ok &= verify_full_duality(n, k, field)
    ok &= time.perf_counter() - t0 < 120.0
    _report(7, "complement-duality", ok)


def test_08_weak_not_strong():
    ok = True
    for n, k in ((5, 2), (6, 3), (7, 2), (7, 3), (7, 4)):
        c = gen_prop54(n, k)
        m = SimplicialMatroid(c, GF2)
        ok &= is_triangulable(m)
        ok &= not is_strongly_triangulable_brute(m)
        ok &= simplicial_faces(c) == []
    _report(8, "weak-not-strong", ok)


def test_09_rank_field_agreement():
    sample = graph_corpus()[:100]
    assert len(sample) == 100
    ok = True
    for inst in sample:
        c = instance_complex(inst)
        ranks = {SimplicialMatroid(c, f).rank for f in (GF2, GF3, GF5, QQ)}
        ok &= len(ranks) == 1
    plane = gen_projective_plane()
    ok &= SimplicialMatroid(plane, GF2).rank == 9
    ok &= SimplicialMatroid(plane, QQ).rank == 10
    _report(9, "rank-field-agreement", ok)


def test_10_certificate_round_trip():
    produced = 0
    failed = 0
    for inst in graph_corpus()[:60] + k3_corpus()[:40]:
        c = instance_complex(inst)
        m = SimplicialMatroid(c, GF2)
        cert = find_dperfect_sequence(c, GF2)
        if cert is not None:
            produced += 1
            failed += not _check(
                lambda: verify_dperfect(c, GF2, parse_dperfect(format_dperfect(cert))))
        dense = check_superdense(m)
        if dense is not None:
            produced += 1
            failed += not _check(
                lambda: verify_superdense(
                    m, parse_superdense(format_superdense(dense), m.ground)))
        if cert is None or len(m.ground) > 22:
            continue
        for circuit in m.circuits_brute()[:2]:
            decomp = strong_decompose(m, circuit_vector(m, circuit), cert)
            produced += 1
            failed += not _check(
                lambda: verify_decomposition(
                    m, parse_decomposition(format_decomposition(decomp), GF2)))
    ok = failed == 0 and produced >= 100
    _report(10, "certificate-round-trip", ok)

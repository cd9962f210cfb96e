import itertools
import random
import sys
from functools import cache

import pytest

from conftest import (EXAMPLE3_SEQUENCE, EXAMPLE3_TRIPLES, every_k3_complex_on_five_vertices,
                      seq_masks, stacked_faces)
from oracles import (brute_facets, forward_verify_peel, peel_step_checker,
                     rescanning_peel_search, supersolvable_modular_chain)

from simatroid import (CertificateError, DPerfectCertificate, GF, GF2, HypercliqueComplex, QQ,
                      SimplicialMatroid, SuperdenseCertificate, build_complex,
                      check_basic_linear_sequence, check_chordal_graph, check_superdense,
                      check_supersolvable, face, find_dperfect_sequence, full_complex, gen_random,
                      instance_complex, is_simplicial_face, simplicial_faces, verify_dperfect,
                      verify_superdense, vertices)
from simatroid.complexes import all_faces
from simatroid.elimination import _peel_search, _ResidualIndex, _verify_peel

CHORD4 = [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]  # 4-cycle with chord 13
FIELDS = [GF2, GF(3), GF(5), QQ]


def small_complexes(count, n, k, base_seed, density="1/2"):
    return [instance_complex(gen_random(n, k, density, base_seed + i)) for i in range(count)]


def peel_oracle(c):
    """Exhaustive peel search with no memoization and no shortcuts."""
    def rec(faces):
        if not faces:
            return True
        comp = HypercliqueComplex(c.n, c.k, faces)
        for v in simplicial_faces(comp):
            if rec(faces - comp.star(v)):
                return True
        return False
    return rec(frozenset(c.faces_k))


def test_simplicial_face_against_facet_count():
    stacked = [build_complex(n, k, stacked_faces(n, k, seed))
               for n, k, seed in ((7, 3, 1), (9, 3, 2), (12, 3, 3), (8, 4, 4), (12, 4, 5))]
    for c in (small_complexes(10, 6, 2, 20) + small_complexes(10, 6, 3, 60, "11/20")
              + small_complexes(8, 7, 4, 300, "3/5") + stacked):
        facets = brute_facets(c)
        for v in all_faces(c.n, c.k - 1):
            containing = [f for f in facets if f & v == v and f != v]
            assert is_simplicial_face(c, v) == (len(containing) == 1)


def test_simplicial_vertex_is_clique_neighborhood():
    for c in small_complexes(12, 7, 2, 90, "2/5"):
        adj = {u: set() for u in range(1, 8)}
        for e in c.faces_k:
            a, b = vertices(e)
            adj[a].add(b)
            adj[b].add(a)
        for u in range(1, 8):
            nb = sorted(adj[u])
            clique = all(face(x, y) in c.faces_k for x, y in itertools.combinations(nb, 2))
            expect = bool(nb) and clique
            assert is_simplicial_face(c, face(u)) == expect


def test_backtrack_matches_exhaustive_oracle():
    for c in small_complexes(25, 5, 2, 150) + small_complexes(25, 6, 3, 180, "11/20"):
        cert = find_dperfect_sequence(c, GF2)
        assert (cert is not None) == peel_oracle(c)
        if cert is not None:
            verify_dperfect(c, GF2, cert)
            # peels partition the k-faces
            union = set()
            for st in cert.cocircuits:
                assert not (union & st)
                union |= st
            assert union == set(c.faces_k)


def test_peel_of_chorded_and_bare_four_cycle():
    cert = find_dperfect_sequence(build_complex(4, 2, CHORD4), QQ)
    assert cert is not None and len(cert) == 3
    c4 = build_complex(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert find_dperfect_sequence(c4, GF2) is None
    assert find_dperfect_sequence(c4, QQ) is None


def test_every_k3_complex_on_five_vertices():
    """All 2^10 k = 3 complexes on 5 vertices: the peel search and the
    superdense chain agree with the exhaustive oracle and verify, the star
    of every simplicial face is a cocircuit, and no first step of a
    peelable complex leaves a residual without a complete peel."""
    complexes = every_k3_complex_on_five_vertices()
    peelable = {c: peel_oracle(c) for c in complexes}
    assert sum(peelable.values()) == 969
    for field in (GF2, GF(3)):
        for c in complexes:
            m = SimplicialMatroid(c, field)
            cert = find_dperfect_sequence(c, field)
            chain = check_superdense(m)
            assert (cert is not None) == (chain is not None) == peelable[c]
            if cert is not None:
                verify_dperfect(c, field, cert)
                verify_superdense(m, chain)
            for v in simplicial_faces(c):
                assert m.is_cocircuit(c.star(v))
    for c in complexes:
        if peelable[c]:
            for v in simplicial_faces(c):
                assert peelable[HypercliqueComplex(5, 3, c.faces_k - c.star(v))]


@cache
def oracle_peels():
    """(complex, the rescanning oracle's peel or None) for all k = 3
    complexes on 5 vertices, seeded random (7, 3), (8, 3) and (7, 4)
    complexes, and stacked complexes."""
    stacked = [build_complex(n, k, stacked_faces(n, k, seed))
               for n, k, seed in ((12, 3, 1), (20, 3, 2), (12, 4, 3), (16, 4, 4), (9, 2, 5))]
    complexes = (every_k3_complex_on_five_vertices() + small_complexes(20, 7, 3, 7000, "11/20")
                 + small_complexes(12, 8, 3, 7100, "2/5") + small_complexes(12, 7, 4, 7200, "3/5")
                 + stacked)
    return [(c, rescanning_peel_search(c)) for c in complexes]


def test_search_matches_rescanning_oracle():
    """The indexed search walks the same tree as the search that rescans
    every (k-1)-set at every node: the same lex-first steps, or None."""
    for c, steps in oracle_peels():
        assert _peel_search(c) == steps


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_reverse_verifier_accepts_what_forward_oracle_accepts(field):
    """Every peel the oracle finds is the certificate find_dperfect_sequence
    returns, verified by the reverse pass, and the forward verifier that
    rebuilds each residual accepts it too; the superdense chain is the
    peel's residuals."""
    for c, steps in oracle_peels():
        if steps is None:
            continue
        m = SimplicialMatroid(c, field)
        cert = find_dperfect_sequence(c, field)
        assert list(zip(cert.sequence, cert.cocircuits)) == steps
        forward_verify_peel(m, steps)
        residuals = [frozenset(m.ground)]
        for _, st in steps:
            residuals.append(residuals[-1] - st)
        assert check_superdense(m).chain == tuple(reversed(residuals))


def test_residual_index_matches_a_fresh_complex():
    """Random walks of peels and undos: after every move the index's
    links and simplicial sets are those of a complex built afresh from
    its live faces, so rechecking only the subsets of the peeled facet,
    and restoring them on undo, loses nothing."""
    rng = random.Random(9)
    complexes = (small_complexes(15, 7, 3, 7300, "3/5") + small_complexes(10, 7, 4, 7400, "3/5")
                 + small_complexes(10, 6, 2, 7500, "3/5")
                 + [build_complex(12, 3, stacked_faces(12, 3, 6)),
                    build_complex(9, 3, EXAMPLE3_TRIPLES)])
    for c in complexes:
        links = dict(c.links)
        index = _ResidualIndex(c)
        peeled = []
        for _ in range(30):
            if index.simplicial and (not peeled or rng.random() < 0.6):
                v = rng.choice(sorted(index.simplicial))
                peeled.append(index.peel(v))
            elif peeled:
                index.undo()
                peeled.pop()
            comp = HypercliqueComplex(c.n, c.k, index.live)
            assert index.live == c.faces_k.difference(*peeled)
            assert index.candidates() == simplicial_faces(comp)
            assert {u: link for u, link in index.links.items() if link} == comp.links
        assert c.links == links, "the complex's own links are never changed"


def test_peel_depth_is_not_bounded_by_the_recursion_limit():
    """full(22, 3) peels in 210 steps, more than the 60 frames a lowered
    recursion limit leaves, so a search that recursed once per step would
    raise RecursionError."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        cert = find_dperfect_sequence(full_complex(22, 3), GF2)
    finally:
        sys.setrecursionlimit(limit)
    assert len(cert) == 210


def test_verify_dperfect_rejects_corruption():
    c = build_complex(4, 2, CHORD4)
    cert = find_dperfect_sequence(c, GF2)
    with pytest.raises(CertificateError):
        verify_dperfect(c, GF2, DPerfectCertificate(cert.sequence[:-1], cert.cocircuits[:-1]))
    with pytest.raises(CertificateError):
        verify_dperfect(c, GF2, DPerfectCertificate(tuple(reversed(cert.sequence)),
                                                    tuple(reversed(cert.cocircuits))))
    bad_star = (frozenset({face(1, 2)}),) + cert.cocircuits[1:]
    with pytest.raises(CertificateError):
        verify_dperfect(c, GF2, DPerfectCertificate(cert.sequence, bad_star))
    with pytest.raises(CertificateError):
        verify_dperfect(c, GF2, DPerfectCertificate((face(1, 2, 3),) + cert.sequence[1:],
                                                    cert.cocircuits))
    # every star a cocircuit and the rank exhausted, but vertex 1 is not simplicial
    seq = (face(1), face(2), face(3))
    assert check_basic_linear_sequence(c, GF2, seq)
    stars = (frozenset({face(1, 2), face(1, 3), face(1, 4)}), frozenset({face(2, 3)}),
             frozenset({face(3, 4)}))
    with pytest.raises(CertificateError, match="not simplicial"):
        verify_dperfect(c, GF2, DPerfectCertificate(seq, stars))


def test_exhaustion_check_rejects_stars_that_miss_a_ground_face():
    """A triangle 123 with a pendant edge 34: the stars {13}, {23}, {34}
    leave out 12.  Read from the last step, each is the star of its face
    among the faces restored so far, simplicial there and a cocircuit, and
    the three raise the rank to the matroid's 3; only the final check that
    the restored faces are the ground set rejects them."""
    c = build_complex(4, 2, [(1, 2), (1, 3), (2, 3), (3, 4)])
    steps = [(face(1), frozenset({face(1, 3)})), (face(2), frozenset({face(2, 3)})),
             (face(3), frozenset({face(3, 4)}))]
    cert = DPerfectCertificate(tuple(v for v, _ in steps), tuple(st for _, st in steps))
    for field in FIELDS:
        with pytest.raises(CertificateError, match="did not exhaust"):
            verify_dperfect(c, field, cert)
        with pytest.raises(CertificateError):
            forward_verify_peel(SimplicialMatroid(c, field), steps)
    # the same stars with 12 added to the first are the lex-first peel
    steps[0] = (face(1), frozenset({face(1, 2), face(1, 3)}))
    assert _peel_search(c) == steps
    _verify_peel(SimplicialMatroid(c, GF2), steps)


def test_basic_linear_sequence_on_worked_example():
    c = build_complex(9, 3, EXAMPLE3_TRIPLES)
    seq = seq_masks(EXAMPLE3_SEQUENCE)
    assert check_basic_linear_sequence(c, GF2, seq)
    assert check_basic_linear_sequence(c, QQ, seq)
    # moving the last face first breaks the cocircuit property
    assert not check_basic_linear_sequence(c, GF2, [seq[-1]] + seq[:-1])
    assert not check_basic_linear_sequence(c, GF2, seq[:-1])  # wrong length


def chordless_cycle_oracle(edges, n):
    """True iff no induced cycle of length >= 4 exists."""
    adj = {u: set() for u in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for size in range(4, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            sub = set(combo)
            degs = [len(adj[u] & sub) for u in combo]
            if any(d != 2 for d in degs):
                continue
            # connected 2-regular induced subgraph = induced cycle
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                u = stack.pop()
                for w in adj[u] & sub:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                return False
    return True


def test_chordality_against_cycle_oracle():
    for seed in range(60):
        inst = gen_random(6, 2, ["2/5", "1/2", "3/5"][seed % 3], 2200 + seed)
        edges = [vertices(f) for f in inst.faces]
        assert check_chordal_graph(edges, 6) == chordless_cycle_oracle(edges, 6)
    assert check_chordal_graph([], 3)
    assert check_chordal_graph([(1, 2), (2, 3)], 3)
    assert not check_chordal_graph([(1, 2), (2, 3), (3, 4), (1, 4)], 4)
    with pytest.raises(ValueError):
        check_chordal_graph([(1, 9)], 4)


def test_superdense_matches_dperfect():
    for c in small_complexes(20, 5, 2, 2500) + small_complexes(20, 6, 3, 2600, "11/20"):
        m = SimplicialMatroid(c, GF2)
        cert = check_superdense(m)
        assert (cert is not None) == (find_dperfect_sequence(c, GF2) is not None)
        if cert is not None:
            verify_superdense(m, cert)
            assert len(cert.chain) == m.rank + 1


def test_verify_superdense_rejects_corruption():
    c = build_complex(4, 2, CHORD4)
    m = SimplicialMatroid(c, GF2)
    cert = check_superdense(m)
    with pytest.raises(CertificateError):
        verify_superdense(m, SuperdenseCertificate(cert.chain[:-1], cert.witnesses[:-1]))
    with pytest.raises(CertificateError):
        verify_superdense(m, SuperdenseCertificate(cert.chain[1:] + (cert.chain[0],),
                                                   cert.witnesses))
    swapped = tuple(reversed(cert.witnesses))
    with pytest.raises(CertificateError):
        verify_superdense(m, SuperdenseCertificate(cert.chain, swapped))


def step_edits(steps, ground, ridges):
    """Every single edit of a peel given as (face, removed set) steps: drop
    a step, swap two, move one face between two removed sets, add or
    remove one face of a removed set, replace a face by another (k-1)-set."""
    r = len(steps)

    def edited(changes):
        return [changes.get(i, step) for i, step in enumerate(steps)]

    for i in range(r):
        yield steps[:i] + steps[i + 1:]
    for i, j in itertools.combinations(range(r), 2):
        yield edited({i: steps[j], j: steps[i]})
    for i, (v, st) in enumerate(steps):
        for f in st:
            for j, (w, other) in enumerate(steps):
                if j != i:
                    yield edited({i: (v, st - {f}), j: (w, other | {f})})
        for f in ground:
            yield edited({i: (v, st ^ {f})})
        for u in ridges:
            if u != v:
                yield edited({i: (u, st)})


def chain_of(ground, steps):
    """The superdense form of top-down peel steps: (chain, witnesses)."""
    chain = [frozenset(ground)]
    for _, st in steps:
        chain.append(chain[-1] - st)
    return tuple(reversed(chain)), tuple(v for v, _ in reversed(steps))


def superdense_edits(ground, steps, ridges):
    """The chains of every edit of the peel, then every chain with one face
    added to or removed from one flat."""
    for edit in step_edits(steps, ground, ridges):
        yield chain_of(ground, edit)
    chain, witnesses = chain_of(ground, steps)
    for i in range(len(chain)):
        for f in ground:
            yield chain[:i] + (chain[i] ^ {f},) + chain[i + 1:], witnesses


def superdense_ok(peel_ok, ground, chain, witnesses):
    """Oracle: nested flats from the empty set to the ground set whose
    differences, read top down, are the steps of a peel."""
    r = len(witnesses)
    if len(chain) != r + 1 or chain[0] or chain[-1] != frozenset(ground):
        return False
    if any(not chain[i] <= chain[i + 1] for i in range(r)):
        return False
    return peel_ok([(witnesses[i], chain[i + 1] - chain[i]) for i in reversed(range(r))])


def rejects(verify, *args):
    try:
        verify(*args)
    except CertificateError:
        return True
    return False


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_certificate_edits_match_oracle(field):
    """Every single edit of a peel and of its superdense chain is rejected
    by the verifier exactly when the oracle step checker rejects it, and
    exactly when the forward verifier does.  Some edits, such as swapping
    two independent steps, leave a valid peel."""
    instances = [build_complex(4, 2, CHORD4), build_complex(9, 3, EXAMPLE3_TRIPLES),
                 build_complex(8, 3, stacked_faces(8, 3, 1))]
    total = rejected = 0
    for c in instances:
        m = SimplicialMatroid(c, field)
        cert = find_dperfect_sequence(c, field)
        steps = list(zip(cert.sequence, cert.cocircuits))
        ridges = all_faces(c.n, c.k - 1)
        peel_ok = peel_step_checker(c, field)
        for edit in step_edits(steps, m.ground, ridges):
            bad = DPerfectCertificate(tuple(v for v, _ in edit), tuple(st for _, st in edit))
            got = rejects(verify_dperfect, c, field, bad)
            assert got == (not peel_ok(edit)), edit
            assert got == (len(edit) != m.rank or rejects(forward_verify_peel, m, edit)), edit
            total, rejected = total + 1, rejected + got
        for chain, witnesses in superdense_edits(m.ground, steps, ridges):
            got = rejects(verify_superdense, m, SuperdenseCertificate(chain, witnesses))
            assert got == (not superdense_ok(peel_ok, m.ground, chain, witnesses))
            total, rejected = total + 1, rejected + got
    assert rejected > 0.9 * total


def test_supersolvable_fast_path_matches_modular_oracle():
    for seed in range(40):
        inst = gen_random(5, 3, "2/5", 5000 + seed)
        if len(inst.faces) > 9:
            continue
        m = SimplicialMatroid(instance_complex(inst), GF2)
        assert check_supersolvable(m) == supersolvable_modular_chain(m)


def test_supersolvable_is_chordality_for_graphs():
    # 33 edges on 12 vertices, not chordal; K_6; seeded random graphs; and
    # stacked graphs, chordal by construction with 11 edges on 7 vertices
    complexes = [instance_complex(gen_random(12, 2, "1/2", 3)),
                 instance_complex(gen_random(6, 2, 1, 0))]
    complexes += [instance_complex(gen_random(n, 2, density, 3100 + 10 * n + i))
                  for n in range(5, 13)
                  for i, density in enumerate(("1/5", "1/3", "1/2", "3/4", "9/10"))]
    complexes += [build_complex(7, 2, stacked_faces(7, 2, seed)) for seed in range(3)]
    for field in (GF2, GF(3), QQ):
        for c in complexes:
            m = SimplicialMatroid(c, field)
            got = check_supersolvable(m)
            assert got == check_chordal_graph(c.faces_k, c.n)
            if len(c.faces_k) <= 12:
                assert got == supersolvable_modular_chain(m)


def test_supersolvable_guard():
    """No guard: graphs with more than ten edges are decided too."""
    inst = gen_random(12, 2, "1/2", 3)
    m = SimplicialMatroid(instance_complex(inst), GF2)
    assert len(m.ground) == 33
    assert check_supersolvable(m) is False
    assert check_chordal_graph(inst.faces, 12) is False

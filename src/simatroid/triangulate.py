"""Circuit decompositions into boundaries of (k+1)-faces.

The boundary of any (k+1)-face of the complex is a dependency among the
k-faces (a "small" circuit).  A matroid here is triangulable when those
boundaries span the whole circuit space, and strongly triangulable when
every circuit can be written as a combination of small circuits whose
apexes cover exactly the circuit's own vertices W; that is span
membership in the boundaries of the (k+1)-faces inside W, one exact solve
per circuit.  A complete simplicial peel gives an explicit decomposition:
strong_decompose eliminates the circuit's support one peel stage at a
time and emits a verified certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chains import ChainVector, boundary, boundary_columns
from .complexes import (HypercliqueComplex, build_complex, face_of, face_sort_key, sorted_faces,
                        vertices)
from .elimination import DPerfectCertificate, _verify_dperfect, simplicial_faces
from .errors import CertificateError
from .fields import GF2, Scalar
from .linalg import IncrementalRank, column_relations, dense_column, sparse_column
from .matroid import SimplicialMatroid, matroid_circuits_exhaustive


def is_triangulable(m: SimplicialMatroid) -> bool:
    """Do the boundaries of the (k+1)-faces span the circuit space?"""
    nullity = len(m.ground) - m.rank
    _, cols = _apex_columns(m)
    inc = IncrementalRank(m.field)
    for col in cols:
        if inc.rank == nullity:
            break
        inc.add(col)
    return inc.rank == nullity


def _apex_columns(m: SimplicialMatroid) -> tuple[list[int], list]:
    """The (k+1)-faces in lex order, and their boundaries as sparse
    columns over the ground set."""
    apexes = sorted_faces(m.complex.skeleton(m.complex.k + 1))
    return apexes, boundary_columns(m.complex, m.field, apexes, m.ground)[1]


def circuit_vector(m: SimplicialMatroid, circuit) -> ChainVector:
    """The dependency supported on a circuit, scaled so the coefficient of
    the lex-smallest face is one.  Raises ValueError if the set is not a
    circuit of this matroid."""
    faces = sorted(m._check_subset(circuit), key=face_sort_key)
    if not faces:
        raise ValueError("a circuit is nonempty")
    _, relations = column_relations([m._cols[f] for f in faces], m.field)
    kernel = [dense_column(m.field, rel, len(faces)) for rel in relations.values()]
    if len(kernel) != 1 or any(m.field.is_zero(x) for x in kernel[0]):
        raise ValueError("not a circuit of this matroid")
    scale = m.field.inv(kernel[0][0])
    return ChainVector(m.field, {f: m.field.mul(scale, x) for f, x in zip(faces, kernel[0])})


@dataclass(frozen=True)
class TriangulationCertificate:
    """target == sum of scalar * boundary(apex) over the terms, with the
    apexes covering exactly the vertices under the target's support."""

    target: ChainVector
    terms: tuple[tuple[int, Scalar], ...]

    def __len__(self) -> int:
        return len(self.terms)


def verify_decomposition(m: SimplicialMatroid, cert: TriangulationCertificate) -> None:
    field = m.field
    if cert.target.field != field:
        raise CertificateError("certificate target is over the wrong field")
    if cert.target.is_zero():
        raise CertificateError("target must be a nonzero dependency")
    ground = frozenset(m.ground)
    if not cert.target.support <= ground:
        raise CertificateError("target is supported outside the k-faces of the complex")
    seen: set[int] = set()
    total = ChainVector(field, {})
    cover = 0
    for apex, coeff in cert.terms:
        if apex in seen:
            raise CertificateError("duplicate apex in certificate")
        seen.add(apex)
        if field.is_zero(coeff):
            raise CertificateError("certificate contains a zero term")
        if apex.bit_count() != m.complex.k + 1 or not m.complex.is_face(apex):
            raise CertificateError(f"apex {vertices(apex)} is not a (k+1)-face of the complex")
        total = total.add_scaled(boundary(m.complex, apex, field), coeff)
        cover |= apex
    if total != cert.target:
        raise CertificateError("terms do not sum to the target")
    span = 0
    for f in cert.target.support:
        span |= f
    if cover != span:
        raise CertificateError("apexes do not cover exactly the target's vertices")


def strong_decompose(m: SimplicialMatroid, target: ChainVector,
                     cert: DPerfectCertificate) -> TriangulationCertificate:
    """Decompose a dependency along a complete simplicial peel.

    Support members are eliminated stage by stage: at the earliest peel
    stage meeting the support, every member shares the peeled (k-1)-face
    and any two of them span a (k+1)-face, so boundaries of those apexes
    clear the stage without touching earlier ones.  The result is checked
    by verify_decomposition before being returned.
    """
    field = m.field
    if target.field != field:
        raise ValueError("target is over the wrong field")
    if target.is_zero():
        raise ValueError("target must be a nonzero dependency")
    _verify_dperfect(m, cert)
    if not m.is_dependency(target):
        raise ValueError("target is not a dependency among the k-faces")
    stage = {}
    for i, cocir in enumerate(cert.cocircuits):
        for f in cocir:
            stage[f] = i
    acc: dict[int, Scalar] = {}
    current = target
    for _ in range(len(cert.sequence)):
        if current.is_zero():
            break
        i = min(stage[f] for f in current.support)
        members = sorted((f for f in current.support if stage[f] == i), key=face_sort_key)
        assert len(members) >= 2, "a dependency cannot meet a cocircuit in one face"
        first = members[0]
        for f in members[1:]:
            apex = first | f
            assert apex.bit_count() == m.complex.k + 1 and m.complex.is_face(apex), \
                "star members of a simplicial face must pairwise span a face"
            bd = boundary(m.complex, apex, field)
            b = field.neg(field.div(current.coeff(f), bd.coeff(f)))
            current = current.add_scaled(bd, b)
            acc[apex] = field.sub(acc.get(apex, field.zero), b)
        assert all(stage[f] > i for f in current.support), \
            "elimination reintroduced a face at an earlier stage"
    assert current.is_zero(), "peel stages were exhausted before the residual"
    terms = tuple((apex, coeff) for apex, coeff in sorted(acc.items(), key=lambda t: face_sort_key(t[0]))
                  if not field.is_zero(coeff))
    result = TriangulationCertificate(target=target, terms=terms)
    verify_decomposition(m, result)
    return result


def is_strongly_triangulable_brute(m: SimplicialMatroid) -> bool:
    """Decide strong triangulability with one span test per circuit.

    Lemma.  Let z be a circuit vector and W the union of its faces.  Then
    z decomposes inside W iff z lies in the span of the boundaries of the
    (k+1)-faces a with a inside W.  Necessity is plain.  For sufficiency
    take any solution and keep its apexes with nonzero coefficients: each
    lies inside W, so together they cover at most W; and each face f of
    the support has z_f != 0, which some kept apex containing f must
    supply, so they cover all of W.  The cover condition thus holds for
    every solution, and one span test decides each circuit.

    Only the circuit enumeration is exponential; it raises GuardExceeded
    past its limit, so False always means a genuine counterexample.
    Circuits on the same vertices share one kernel over the boundaries
    inside W.  Over GF(2) a circuit's vector is all ones on its support.
    """
    if not is_triangulable(m):
        return False
    skeleton, skeleton_cols = _apex_columns(m)
    pos = {f: i for i, f in enumerate(m.ground)}
    kernels: dict[int, IncrementalRank] = {}
    for circuit in matroid_circuits_exhaustive(m):
        want = 0
        for f in circuit:
            want |= f
        inc = kernels.get(want)
        if inc is None:
            inc = kernels[want] = IncrementalRank(m.field)
            inc.extend([col for x, col in zip(skeleton, skeleton_cols) if x & want == x])
        if m.field.p == 2:
            z = sum(1 << pos[f] for f in circuit)
        else:
            z = sparse_column(m.field, [(pos[f], a) for f, a in circuit_vector(m, circuit).items_lex()])
        if inc.reduce(z):
            return False
    return True


def gen_projective_plane() -> HypercliqueComplex:
    """Ten triples on six vertices whose rank depends on the field: 10 over
    the rationals (hence circuit-free and supersolvable there) but 9 over
    GF(2), where all ten faces form the lone circuit."""
    triples = [(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
               (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6)]
    return build_complex(6, 3, triples)


def gen_prop54(n: int, k: int) -> HypercliqueComplex:
    """A triangulable complex that is not strongly triangulable.

    Two overlapping (k+1)-element bases are coned off to the last vertex
    n, and the k-set common to both bases is removed.  Every (k+1)-face
    then contains n, while the 2k-element circuit left over from the two
    bases does not reach n at all, so no decomposition of it can stay
    inside its own vertices.  The expected structure is asserted before
    the complex is returned.
    """
    if not 2 <= k <= n - 3:
        raise ValueError("need 2 <= k <= n - 3")
    base1 = set(range(1, k + 2))
    base2 = set(range(2, k + 3))
    t = frozenset(range(2, k + 2))
    faces: set[frozenset[int]] = set()
    for base in (base1, base2):
        faces.update(frozenset(c) for c in combinations(sorted(base), k))
        for i in sorted(base):
            coned = (base - {i}) | {n}
            faces.update(frozenset(c) for c in combinations(sorted(coned), k))
    faces.discard(t)
    c = build_complex(n, k, faces)

    expected_apexes = {face_of((base1 - {i}) | {n}) for i in base1 if i != 1}
    expected_apexes |= {face_of((base2 - {j}) | {n}) for j in base2 if j != k + 2}
    assert len(expected_apexes) == 2 * k
    assert c.skeleton(k + 1) == frozenset(expected_apexes), \
        "construction produced unexpected (k+1)-faces"
    assert not simplicial_faces(c), "construction must have no simplicial (k-1)-faces"

    big = {frozenset(comb) for base in (base1, base2)
           for comb in combinations(sorted(base), k)} - {t}
    assert len(big) == 2 * k
    m2 = SimplicialMatroid(c, GF2)
    vec = circuit_vector(m2, [face_of(f) for f in big])
    total = ChainVector(GF2, {})
    for apex in expected_apexes:
        total = total.add(boundary(c, apex, GF2))
    assert total == vec, "apex boundaries must sum to the leftover circuit"
    return c

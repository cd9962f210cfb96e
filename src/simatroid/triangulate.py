"""Circuit decompositions into boundaries of (k+1)-faces.

The boundary of any (k+1)-face of the complex is a dependency among the
k-faces (a "small" circuit).  A matroid here is triangulable when those
boundaries span the whole circuit space, and strongly triangulable when
every circuit can be written as a combination of small circuits whose
apexes cover exactly the circuit's own vertices W; both are decided by
rank.  A complete simplicial peel gives an explicit decomposition:
strong_decompose eliminates the circuit's support one peel stage at a
time and emits a verified certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chains import ChainVector, boundary
from .complexes import (HypercliqueComplex, build_complex, face_of, face_sort_key,
                        submasks_of_size, vertices)
from .elimination import DPerfectCertificate, _peel, _verify_dperfect, simplicial_faces
from .errors import CertificateError, GuardExceeded
from .fields import GF2, Scalar
from .linalg import IncrementalRank, column_relations, dense_column
from .matroid import SimplicialMatroid

STRONG_SCAN_LIMIT = 1 << 16


def is_triangulable(m: SimplicialMatroid) -> bool:
    """Do the boundaries of the (k+1)-faces span the circuit space?"""
    return _triangulable_on(m, (1 << m.complex.n) - 1)


def _triangulable_on(m: SimplicialMatroid, w: int) -> bool:
    """Is the subcomplex induced on the vertex set w triangulable: do the
    boundaries of the apexes inside w reach the nullity of its faces?"""
    inside = [col for f, col in m._cols.items() if f & w == f]
    inc = IncrementalRank(m.field)
    inc.extend(inside)
    nullity = len(inside) - inc.rank
    inc = IncrementalRank(m.field)
    for apex, col in m._apex_cols:
        if inc.rank == nullity:
            break
        if apex & w == apex:
            inc.add(col)
    return inc.rank == nullity


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
    clear the stage without touching earlier ones.  The peel is verified
    once per matroid, on the first call that passes it with m; the result
    is checked by verify_decomposition before being returned.
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


def _scanned_vertex_sets(m: SimplicialMatroid, span: int):
    """The proper subsets W of span, over k vertices, smallest first, in
    which every vertex lies in two faces inside W."""
    for size in range(m.complex.k + 1, span.bit_count()):
        for w in submasks_of_size(span, size):
            once = twice = 0
            for f in m.ground:
                if f & w == f:
                    twice |= once & f
                    once |= f
            if twice == w:
                yield w


def is_strongly_triangulable_brute(m: SimplicialMatroid) -> bool:
    """Decide strong triangulability by rank alone, over any field.

    Lemma.  A circuit z on the vertex set W decomposes inside W iff z lies
    in the span of the boundaries of the (k+1)-faces inside W: the apexes
    of any solution with nonzero coefficients cover at most W, and each
    face f of z, having z_f != 0, lies in one of them, so they cover W.

    So the complex is strongly triangulable iff every subcomplex D[W]
    induced on a vertex set is triangulable (its circuits span its
    dependencies).  A verified complete simplicial peel gives True;
    strong_decompose decomposes each circuit along it.  For k = 2 no peel
    gives False: by Dirac the graph is not chordal, and a chordless cycle
    is a circuit with no triangle inside its vertex set.  Otherwise the
    vertex sets of the faces' vertices are scanned, smallest first; the
    scan is sized first and raises GuardExceeded above STRONG_SCAN_LIMIT.

    The scan skips each W in which some vertex lies in fewer than two
    faces inside W.  If D[W] is not triangulable, some circuit z of it is
    outside the span of the apexes inside W, so by the lemma D[W(z)] is
    not triangulable, W(z) the vertices of z.  Each of them lies in two
    faces of z: were f the only one, f less another of its vertices would
    lie in no other face of z, and z's dependency there would be +-z_f.
    So W(z) is scanned, or is the whole span, which is tested first.
    """
    return is_triangulable(m) and _strongly_triangulable_given_whole(m)


def _strongly_triangulable_given_whole(m: SimplicialMatroid) -> bool:
    """Every step of is_strongly_triangulable_brute after the whole-span test."""
    if _peel(m) is not None:
        return True
    if m.complex.k == 2:
        return False
    span = 0
    for f in m.ground:
        span |= f
    n = span.bit_count()
    if 1 << n > STRONG_SCAN_LIMIT:
        raise GuardExceeded(f"strong triangulability check needs a scan of 2^{n} = {1 << n} "
                            f"vertex sets, above the limit of {STRONG_SCAN_LIMIT}")
    return all(_triangulable_on(m, w) for w in _scanned_vertex_sets(m, span))


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

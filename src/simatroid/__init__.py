"""Matroids of boundary maps of k-hyperclique complexes.

Faces are bitmasks over at most 64 vertices; all linear algebra is exact
(prime fields or rationals).  The interesting structure — complete
simplicial peels, superdense flat chains, circuit decompositions into
boundaries of (k+1)-faces — comes with checkable certificates.
"""

from .chains import BoundaryMatrix, ChainVector, boundary, boundary_matrix
from .complexes import (HypercliqueComplex, all_faces, build_complex, face, face_of,
                        face_sort_key, face_text, full_complex, sorted_faces, vertices)
from .elimination import (DPerfectCertificate, SuperdenseCertificate, check_basic_linear_sequence,
                          check_chordal_graph, check_superdense, check_supersolvable,
                          find_dperfect_sequence, is_simplicial_face, simplicial_faces,
                          verify_dperfect, verify_superdense)
from .errors import CertificateError, GuardExceeded, ParseError
from .fields import GF, GF2, QQ, Field
from .instances import (Instance, field_from_token, gen_random, instance_complex,
                        parse_instance, write_instance)
from .matroid import (SimplicialMatroid, SmallCircuit, matroid_circuits_exhaustive,
                      matroid_cocircuits_exhaustive, verify_full_duality)
from .triangulate import (TriangulationCertificate, circuit_vector, gen_projective_plane,
                          gen_prop54, is_strongly_triangulable_brute, is_triangulable,
                          strong_decompose, verify_decomposition)
from .certificates import (format_decomposition, format_dperfect, format_superdense,
                           parse_decomposition, parse_dperfect, parse_superdense)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMatrix", "CertificateError", "ChainVector", "DPerfectCertificate", "Field",
    "GF", "GF2", "GuardExceeded", "HypercliqueComplex", "Instance", "ParseError", "QQ",
    "SimplicialMatroid", "SmallCircuit", "SuperdenseCertificate", "TriangulationCertificate",
    "all_faces", "boundary", "boundary_matrix", "build_complex", "check_basic_linear_sequence",
    "check_chordal_graph", "check_superdense", "check_supersolvable", "circuit_vector", "face",
    "face_of", "face_sort_key", "face_text", "field_from_token", "find_dperfect_sequence",
    "format_decomposition", "format_dperfect", "format_superdense", "full_complex",
    "gen_projective_plane", "gen_prop54", "gen_random", "instance_complex",
    "is_simplicial_face", "is_strongly_triangulable_brute", "is_triangulable",
    "matroid_circuits_exhaustive", "matroid_cocircuits_exhaustive", "parse_decomposition",
    "parse_dperfect", "parse_instance", "parse_superdense", "simplicial_faces", "sorted_faces",
    "strong_decompose", "verify_decomposition", "verify_dperfect", "verify_full_duality",
    "verify_superdense", "vertices", "write_instance",
]

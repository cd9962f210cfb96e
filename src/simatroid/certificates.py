"""Text form of the three checkable certificates.

Every block is framed by begin/end markers so it can be embedded in a
report and cut back out.  Faces are written as their vertices, lists of
faces are comma separated:

    begin d-perfect
    peel 4 5 : cocircuit 1 4 5 , 2 4 5
    end d-perfect

Superdense chains are written top step first; the parser rebuilds the
ascending chain, which needs the instance's full face list.  Scalars in
decompositions are written by the field, so parsing one needs the field.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import face_of, face_text, sorted_faces
from .elimination import DPerfectCertificate, SuperdenseCertificate
from .errors import CertificateError
from .fields import Field
from .chains import ChainVector
from .triangulate import TriangulationCertificate


def _face_from_tokens(tokens: list[str], line: str) -> int:
    try:
        return face_of(int(t) for t in tokens)
    except ValueError as exc:
        raise CertificateError(f"bad face in {line!r}: {exc}") from None


def _format_face_list(faces: Iterable[int]) -> str:
    return " , ".join(face_text(f) for f in sorted_faces(faces))


def _parse_face_list(text: str, line: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    out = set()
    for chunk in text.split(","):
        tokens = chunk.split()
        if not tokens:
            raise CertificateError(f"empty face in list: {line!r}")
        out.add(_face_from_tokens(tokens, line))
    return frozenset(out)


def _block_lines(text: str, kind: str) -> list[str]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != f"begin {kind}" or lines[-1] != f"end {kind}":
        raise CertificateError(f"expected a 'begin {kind}' ... 'end {kind}' block")
    return lines[1:-1]


def format_dperfect(cert: DPerfectCertificate) -> str:
    lines = ["begin d-perfect"]
    for v, cocir in zip(cert.sequence, cert.cocircuits):
        lines.append(f"peel {face_text(v)} : cocircuit {_format_face_list(cocir)}")
    lines.append("end d-perfect")
    return "\n".join(lines) + "\n"


def parse_dperfect(text: str) -> DPerfectCertificate:
    sequence = []
    cocircuits = []
    for line in _block_lines(text, "d-perfect"):
        if not line.startswith("peel ") or " : cocircuit " not in line:
            raise CertificateError(f"bad peel line: {line!r}")
        head, _, tail = line.partition(" : cocircuit ")
        sequence.append(_face_from_tokens(head.split()[1:], line))
        cocircuits.append(_parse_face_list(tail, line))
    return DPerfectCertificate(sequence=tuple(sequence), cocircuits=tuple(cocircuits))


def format_superdense(cert: SuperdenseCertificate) -> str:
    """Each face is sorted and rendered once; a flat is the rendered list
    filtered down to its members."""
    rendered = [(f, face_text(f)) for f in sorted_faces(frozenset().union(*cert.chain))]
    lines = ["begin superdense"]
    for i in range(len(cert.witnesses) - 1, -1, -1):
        flat = " , ".join(text for f, text in rendered if f in cert.chain[i])
        lines.append(f"witness {face_text(cert.witnesses[i])} : flat"
                     + (f" {flat}" if flat else ""))
    lines.append("end superdense")
    return "\n".join(lines) + "\n"


def parse_superdense(text: str, ground: Iterable[int]) -> SuperdenseCertificate:
    chain = [frozenset(ground)]
    witnesses = []
    for line in _block_lines(text, "superdense"):
        if not line.startswith("witness ") or " : flat" not in line:
            raise CertificateError(f"bad witness line: {line!r}")
        head, _, tail = line.partition(" : flat")
        witnesses.append(_face_from_tokens(head.split()[1:], line))
        chain.append(_parse_face_list(tail, line))
    return SuperdenseCertificate(chain=tuple(reversed(chain)),
                                 witnesses=tuple(reversed(witnesses)))


def format_decomposition(cert: TriangulationCertificate) -> str:
    field = cert.target.field
    lines = ["begin decomposition"]
    for f, a in cert.target.items_lex():
        lines.append(f"target {field.format(a)} {face_text(f)}")
    for apex, a in cert.terms:
        lines.append(f"term {field.format(a)} {face_text(apex)}")
    lines.append("end decomposition")
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str, field: Field) -> TriangulationCertificate:
    coeffs = {}
    terms = []
    for line in _block_lines(text, "decomposition"):
        tokens = line.split()
        if len(tokens) < 3 or tokens[0] not in ("target", "term"):
            raise CertificateError(f"bad decomposition line: {line!r}")
        try:
            scalar = field.parse(tokens[1])
        except (ValueError, ZeroDivisionError):
            raise CertificateError(f"bad scalar in {line!r}") from None
        mask = _face_from_tokens(tokens[2:], line)
        if tokens[0] == "target":
            if mask in coeffs:
                raise CertificateError(f"duplicate target face: {line!r}")
            coeffs[mask] = scalar
        else:
            terms.append((mask, scalar))
    return TriangulationCertificate(target=ChainVector(field, coeffs), terms=tuple(terms))

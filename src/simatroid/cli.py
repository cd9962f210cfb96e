"""Command line front end.

Reports are plain "key value" lines so they diff cleanly; certificate
blocks are embedded verbatim.  Exit status: 0 when the question was
decided, 2 when a search gave up behind a guard (the report then says
"inconclusive"), 1 on bad input.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .certificates import (_parse_face_list, format_decomposition, format_dperfect,
                           format_superdense)
from .complexes import face_text, sorted_faces
from .elimination import _peel, check_superdense, check_supersolvable, simplicial_faces
from .errors import CertificateError, GuardExceeded, ParseError
from .instances import (Instance, field_from_token, gen_random, instance_complex,
                        parse_instance, write_instance)
from .matroid import SimplicialMatroid, verify_full_duality
from .triangulate import (_strongly_triangulable_given_whole, circuit_vector,
                          gen_projective_plane, gen_prop54, is_triangulable, strong_decompose)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="simatroid",
        description="Matroids of boundary maps of k-hyperclique complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", metavar="P|q",
                        help="work over GF(P) or the rationals (overrides the instance)")
    common.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")

    inst = argparse.ArgumentParser(add_help=False, parents=[common])
    inst.add_argument("--file", metavar="PATH", help="instance file (default: stdin)")

    sub.add_parser("analyze", parents=[inst],
                   help="rank, facets and simplicial faces of an instance")

    sub.add_parser("perfect", parents=[inst], help="search for a complete simplicial peel")

    sub.add_parser("superdense", parents=[inst],
                   help="search for a maximal chain of relatively dense flats")

    sub.add_parser("supersolvable", parents=[inst],
                   help="decide supersolvability of the matroid")

    sub.add_parser("triangulate", parents=[inst],
                   help="triangulability and strong triangulability")

    p = sub.add_parser("decompose", parents=[inst],
                       help="decompose a circuit along a simplicial peel")
    p.add_argument("--circuit", required=True, metavar="FACES",
                   help="comma separated faces, e.g. '1 2 3 , 1 2 4'")

    p = sub.add_parser("dual-check", parents=[common],
                       help="circuits of the full complement complex vs cocircuits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("gen", parents=[common], help="write a named instance")
    p.add_argument("kind", choices=("projective-plane", "prop54", "random"))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", default="1/2", metavar="FRAC")
    return parser


def _instance_matroid(args) -> tuple[SimplicialMatroid, list[str]]:
    """The one matroid of an instance command, over the chosen field, and
    the head of its report."""
    if args.file is not None:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    inst = parse_instance(text)
    field = field_from_token(args.field) if args.field else inst.field
    head = [f"n {inst.n}", f"k {inst.k}", f"field {field.name}", f"faces {len(inst.faces)}"]
    return SimplicialMatroid(instance_complex(inst), field), head


def _block(text: str) -> list[str]:
    return text.rstrip("\n").splitlines()


# Each instance command answers from the instance's matroid: (exit status,
# report lines after the head).

def _cmd_analyze(m: SimplicialMatroid, args) -> tuple[int, list[str]]:
    lines = [f"rank {m.rank}", f"nullity {len(m.ground) - m.rank}"]
    facets = sorted_faces(m.complex.facets)
    lines.append(f"facets {len(facets)}")
    lines.extend(f"facet {face_text(f)}" for f in facets)
    simp = simplicial_faces(m.complex)
    lines.append(f"simplicial-faces {len(simp)}")
    lines.extend(f"simplicial {face_text(v)}" for v in simp)
    return 0, lines


def _cmd_perfect(m: SimplicialMatroid, args) -> tuple[int, list[str]]:
    cert = _peel(m)
    if cert is None:
        return 0, ["d-perfect false"]
    return 0, ["d-perfect true", *_block(format_dperfect(cert))]


def _cmd_superdense(m: SimplicialMatroid, args) -> tuple[int, list[str]]:
    cert = check_superdense(m)
    if cert is None:
        return 0, ["superdense false"]
    return 0, ["superdense true", *_block(format_superdense(cert))]


def _cmd_supersolvable(m: SimplicialMatroid, args) -> tuple[int, list[str]]:
    return 0, [f"supersolvable {'true' if check_supersolvable(m) else 'false'}"]


def _cmd_triangulate(m: SimplicialMatroid, args) -> tuple[int, list[str]]:
    if not is_triangulable(m):
        return 0, ["triangulable false", "strongly-triangulable false"]
    try:
        strong = _strongly_triangulable_given_whole(m)
    except GuardExceeded as exc:
        return 2, ["triangulable true", "strongly-triangulable inconclusive", f"note {exc}"]
    return 0, ["triangulable true", f"strongly-triangulable {'true' if strong else 'false'}"]


def _cmd_decompose(m: SimplicialMatroid, args) -> tuple[int, list[str]]:
    circuit = _parse_face_list(args.circuit, args.circuit)
    peel = _peel(m)
    if peel is None:
        raise ValueError("instance has no complete simplicial peel; cannot decompose")
    cert = strong_decompose(m, circuit_vector(m, circuit), peel)
    return 0, [f"circuit {' , '.join(face_text(f) for f in sorted_faces(circuit))}",
               *_block(format_decomposition(cert))]


def _cmd_dual_check(args) -> tuple[int, list[str]]:
    field = field_from_token(args.field) if args.field else field_from_token("2")
    lines = [f"n {args.n}", f"k {args.k}", f"field {field.name}"]
    try:
        ok = verify_full_duality(args.n, args.k, field)
    except GuardExceeded as exc:
        lines.append("duality inconclusive")
        lines.append(f"note {exc}")
        return 2, lines
    lines.append(f"duality {'true' if ok else 'false'}")
    return 0, lines


def _cmd_gen(args) -> tuple[int, list[str]]:
    field = field_from_token(args.field) if args.field else field_from_token("2")
    if args.kind == "projective-plane":
        c = gen_projective_plane()
        inst = Instance(n=c.n, k=c.k, faces=tuple(sorted_faces(c.faces_k)), field=field)
    elif args.kind == "prop54":
        if args.n is None or args.k is None:
            raise ValueError("gen prop54 needs --n and --k")
        c = gen_prop54(args.n, args.k)
        inst = Instance(n=c.n, k=c.k, faces=tuple(sorted_faces(c.faces_k)), field=field)
    else:
        if args.n is None or args.k is None:
            raise ValueError("gen random needs --n and --k")
        inst = gen_random(args.n, args.k, args.density, args.seed, field=field)
    return 0, _block(write_instance(inst))


_INSTANCE_COMMANDS = {
    "analyze": _cmd_analyze,
    "perfect": _cmd_perfect,
    "superdense": _cmd_superdense,
    "supersolvable": _cmd_supersolvable,
    "triangulate": _cmd_triangulate,
    "decompose": _cmd_decompose,
}
_COMMANDS = {"dual-check": _cmd_dual_check, "gen": _cmd_gen}


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit status, report text).

    When --out is given the report is written to that file and the
    returned text is empty.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if not exc.code else 1), ""
    try:
        if args.command in _INSTANCE_COMMANDS:
            m, head = _instance_matroid(args)
            code, lines = _INSTANCE_COMMANDS[args.command](m, args)
            lines = head + lines
        else:
            code, lines = _COMMANDS[args.command](args)
    except GuardExceeded as exc:
        return 2, f"inconclusive: {exc}\n"
    except (ParseError, CertificateError, ValueError, OSError) as exc:
        return 1, f"error: {exc}\n"
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return code, ""
    return code, text


def main(argv=None) -> int:
    code, text = run_command(argv if argv is not None else sys.argv[1:])
    if text:
        stream = sys.stderr if code == 1 else sys.stdout
        stream.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Byte-identical CLI reports on fixed instances.

Every command's report (and exit status) on each instance below is
compared with a stored copy in tests/golden/.  The stored copies pin the
report format and every certificate the searches choose, so a change in
the linear algebra underneath cannot silently change what is printed.

To rewrite the stored copies from the simatroid on the import path:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import io
import sys
from itertools import combinations
from pathlib import Path

import pytest
from conftest import (EXAMPLE3_TRIPLES, PROJECTIVE_TRIPLES, full_minus_pair, instance_text,
                      stacked_faces)

from simatroid import gen_prop54, vertices
from simatroid.cli import run_command

GOLDEN = Path(__file__).with_name("golden")

COMMANDS = ("analyze", "perfect", "superdense", "supersolvable", "triangulate", "decompose")

# chordal: a 4-cycle 1-2-3-4 with chord 1-3, a pendant triangle on 3-5 and a fan
CHORDAL_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (3, 5), (4, 5), (5, 6),
                 (5, 7), (6, 7), (7, 8)]


INSTANCES = {
    "stacked-10-3-q": instance_text(10, 3, "q", stacked_faces(10, 3, 1)),
    "stacked-12-4-5": instance_text(12, 4, "5", stacked_faces(12, 4, 2)),
    # deep peels: 88 and 81 faces
    "stacked-32-3-2": instance_text(32, 3, "2", stacked_faces(32, 3, 3)),
    "stacked-24-4-3": instance_text(24, 4, "3", stacked_faces(24, 4, 4)),
    "projective-plane-2": instance_text(6, 3, "2", PROJECTIVE_TRIPLES),
    "projective-plane-q": instance_text(6, 3, "q", PROJECTIVE_TRIPLES),
    "prop54-7-3": instance_text(7, 3, "2", map(vertices, gen_prop54(7, 3).faces_k)),
    "worked-example-9": instance_text(9, 3, "2", EXAMPLE3_TRIPLES),
    "worked-example-9-q": instance_text(9, 3, "q", EXAMPLE3_TRIPLES),
    "chordal-graph-8": instance_text(8, 2, "2", CHORDAL_EDGES),
    # no peel, yet strongly triangulable: decided by the scan of vertex sets
    "full-6-3-minus-pair-2": instance_text(6, 3, "2", full_minus_pair()),
    "full-6-3-minus-pair-q": instance_text(6, 3, "q", full_minus_pair()),
}

DUAL_CHECKS = {"dual-check-6-3-3": ["dual-check", "--n", "6", "--k", "3", "--field", "3"]}


def decompose_circuit(text: str) -> str:
    """The boundary of the lex-first (k+1)-set whose k-subsets are all faces,
    or every face when there is none (the command then refuses)."""
    lines = text.splitlines()
    n, k = map(int, lines[0].split())
    faces = {tuple(map(int, line.split())) for line in lines[2:]}
    for apex in combinations(range(1, n + 1), k + 1):
        subs = list(combinations(apex, k))
        if all(s in faces for s in subs):
            return " , ".join(" ".join(map(str, s)) for s in subs)
    return " , ".join(" ".join(map(str, f)) for f in sorted(faces))


def run_with_stdin(argv, text: str) -> tuple[int, str]:
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        return run_command(argv)
    finally:
        sys.stdin = saved


def render(name: str) -> str:
    """All reports for one golden case, each headed by its command and exit."""
    if name in DUAL_CHECKS:
        runs = [(DUAL_CHECKS[name], "")]
    else:
        text = INSTANCES[name]
        runs = [([cmd] + (["--circuit", decompose_circuit(text)] if cmd == "decompose" else []),
                 text) for cmd in COMMANDS]
    chunks = []
    for argv, text in runs:
        code, report = run_with_stdin(argv, text)
        chunks.append(f"== {' '.join(argv)} (exit {code})\n{report}")
    return "".join(chunks)


CASES = list(INSTANCES) + list(DUAL_CHECKS)


@pytest.mark.parametrize("name", CASES)
def test_report_is_byte_identical(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render(name) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(render(case), encoding="utf-8")
        print(f"wrote {case}")

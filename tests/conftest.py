"""Shared fixtures: the worked 9-vertex example, the rank-discrepancy
six-point configuration, the seeded random corpora, every k = 3 complex
on five vertices, and the peel-less strongly triangulable complexes."""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations

from simatroid import HypercliqueComplex, all_faces, face, gen_random, instance_complex

EXAMPLE3_TRIPLES = [
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 4, 5), (2, 4, 5),
    (1, 3, 6), (1, 3, 7), (1, 6, 7), (3, 6, 7),
    (2, 3, 8), (2, 3, 9), (2, 8, 9), (3, 8, 9),
]

EXAMPLE3_TEXT = "9 3\n" + "\n".join(" ".join(map(str, t)) for t in EXAMPLE3_TRIPLES) + "\n"

EXAMPLE3_FACETS = [
    (1, 2, 3), (1, 2, 4, 5), (1, 3, 6, 7), (2, 3, 8, 9),
    (1, 8), (1, 9), (2, 6), (2, 7), (3, 4), (3, 5),
    (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7),
    (5, 8), (5, 9), (6, 8), (6, 9), (7, 8), (7, 9),
]

EXAMPLE3_SEQUENCE = [(4, 5), (6, 7), (8, 9), (1, 5), (1, 4),
                     (1, 6), (1, 7), (2, 8), (2, 9), (1, 2)]

PROJECTIVE_TRIPLES = [
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
]

GRAPH_DENSITIES = ["1/4", "2/5", "1/2", "3/5", "3/4"]
K3_DENSITIES = ["1/4", "2/5", "11/20", "7/10"]


@cache
def graph_corpus():
    """500 seeded graphs on 4..8 vertices with cycling densities."""
    out = []
    for seed in range(500):
        n = 4 + seed % 5
        density = GRAPH_DENSITIES[(seed // 5) % 5]
        out.append(gen_random(n, 2, density, seed))
    return out


@cache
def k3_corpus():
    """200 seeded k=3 instances on 5..7 vertices."""
    out = []
    for seed in range(200):
        n = 5 + seed % 3
        density = K3_DENSITIES[(seed // 3) % 4]
        out.append(gen_random(n, 3, density, 1000 + seed))
    return out


def instance_text(n: int, k: int, field: str, faces) -> str:
    body = "\n".join(" ".join(map(str, f)) for f in sorted(faces))
    return f"{n} {k}\nfield {field}\n{body}\n"


def full_corpus():
    return graph_corpus() + k3_corpus()


def complexes_of(instances):
    return [instance_complex(inst) for inst in instances]


def seq_masks(pairs):
    return [face(*p) for p in pairs]


def stacked_faces(n: int, k: int, seed: int) -> list[tuple[int, ...]]:
    """Start from the k-face 1..k; cone each new vertex over the boundary of
    a seeded choice of an earlier k-face.  A complete peel exists."""
    rng = random.Random(seed)
    faces = [tuple(range(1, k + 1))]
    for v in range(k + 1, n + 1):
        base = rng.choice(faces)
        faces.extend(tuple(sorted(set(base) - {x} | {v})) for x in base)
    return faces


@cache
def every_k3_complex_on_five_vertices():
    triples = all_faces(5, 3)
    return [HypercliqueComplex(5, 3, [f for i, f in enumerate(triples) if bits >> i & 1])
            for bits in range(1 << len(triples))]


def full_minus_pair(triangle=(1, 2, 3), copies: int = 1) -> list[tuple[int, ...]]:
    """The full (6, 3) complex minus a triangle and its complement, on
    copies disjoint blocks of six vertices.  It has no simplicial face,
    hence no peel, and is still strongly triangulable over every field."""
    rest = tuple(v for v in range(1, 7) if v not in triangle)
    return [tuple(6 * i + v for v in t) for i in range(copies)
            for t in combinations(range(1, 7), 3) if t not in (tuple(triangle), rest)]

"""Tests of the benchmark's independent checkers.

    python3 perfbench/test_checkers.py      (or: python3 -m pytest perfbench)

They use no simatroid code: each checker is tested on hand-worked cases
and against another checker.
"""

from __future__ import annotations

import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkers as C  # noqa: E402

F = C.mask_of


def edges(*pairs):
    return [F(p) for p in pairs]


def stacked(n, k, seed):
    rng = random.Random(seed)
    faces, apexes = [(1 << k) - 1], []
    for v in range(k, n):
        base = rng.choice(faces)
        faces += [(base & ~(1 << i)) | 1 << v for i in range(n) if base >> i & 1]
        apexes.append(base | 1 << v)
    return faces, apexes


CHORDED_C4 = edges((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))
C4 = edges((1, 2), (2, 3), (3, 4), (1, 4))
PLANE = [F(t) for t in [(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
                        (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6)]]


class Graphs(unittest.TestCase):
    def test_chordality(self):
        fan = edges(*[(1, v) for v in range(2, 8)], *[(v, v + 1) for v in range(2, 7)])
        self.assertTrue(C.is_chordal(4, CHORDED_C4))
        self.assertTrue(C.is_chordal(7, fan))
        self.assertTrue(C.is_chordal(5, C.k_sets(5, 2)))
        self.assertTrue(C.is_chordal(5, edges((1, 2), (2, 3), (3, 4))))
        self.assertFalse(C.is_chordal(4, C4))
        self.assertFalse(C.is_chordal(6, edges((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6))))

    def test_graph_rank_matches_gf2_rank(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(3, 8)
            es = rng.sample(C.k_sets(n, 2), rng.randrange(0, n * (n - 1) // 2 + 1))
            self.assertEqual(C.graph_rank(n, es), C.gf2_rank(C.boundary_columns_gf2(es)))
        self.assertEqual(C.graph_rank(5, CHORDED_C4), 3)


class LinearAlgebra(unittest.TestCase):
    def test_rank_depends_on_field(self):
        vecs = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        self.assertEqual(C.rank_exact(vecs, None), 2)
        self.assertEqual(C.rank_exact(vecs, 3), 2)
        self.assertEqual(C.rank_exact(vecs, 2), 1)
        cols = [C.boundary(f, 2) for f in PLANE]
        self.assertEqual(C.rank_exact(cols, 2), 9)
        self.assertEqual(C.gf2_rank(C.boundary_columns_gf2(PLANE)), 9)
        self.assertEqual(C.rank_exact([C.boundary(f, None) for f in PLANE], None), 10)

    def test_first_circuit(self):
        faces = C.lex(CHORDED_C4)           # 12 13 14 23 34
        self.assertEqual(C.gf2_first_circuit(C.boundary_columns_gf2(faces)), [0, 1, 3])
        self.assertIsNone(C.gf2_first_circuit(C.boundary_columns_gf2(faces[:3])))


class Chains(unittest.TestCase):
    def test_boundary_signs(self):
        self.assertEqual(C.boundary(F((1, 2, 3)), None), {F((2, 3)): -1, F((1, 3)): 1,
                                                          F((1, 2)): -1})
        for p in (None, 2, 3, 5):
            self.assertEqual(C.boundary_of_chain(C.boundary(F((1, 2, 3, 4)), p), p), {})

    def test_check_decomposition(self):
        faces = frozenset(C.k_sets(5, 3))
        target = {}
        C.add_scaled(target, C.boundary(F((1, 2, 3, 4)), None), Fraction(1), None)
        C.add_scaled(target, C.boundary(F((1, 2, 3, 5)), None), Fraction(-2), None)
        good = [(F((1, 2, 3, 4)), 1), (F((1, 2, 3, 5)), -2)]
        C.check_decomposition(faces, 3, None, target, good)
        with self.assertRaises(C.CheckFailed):
            C.check_decomposition(faces, 3, None, target, [(F((1, 2, 3, 4)), 1),
                                                          (F((1, 2, 3, 5)), 2)])
        with self.assertRaises(C.CheckFailed):     # sums right, but leaves the vertices
            C.check_decomposition(faces, 3, None, C.boundary(F((1, 2, 3, 4)), None),
                                  [(F((1, 2, 3, 4)), 1), (F((1, 2, 3, 5)), 1),
                                   (F((1, 2, 3, 5)), -1)])
        missing = faces - {F((1, 2, 5))}
        with self.assertRaises(C.CheckFailed):
            C.check_decomposition(missing, 3, None, target, good)


class SmallComplexes(unittest.TestCase):
    def test_readme_example(self):
        c = C.SmallComplex(4, 2, CHORDED_C4)
        self.assertEqual(c.facets(), [F((1, 2, 3)), F((1, 3, 4))])
        self.assertEqual(c.simplicial(), [F((2,)), F((4,))])
        peel = [(F((2,)), [F((1, 2)), F((2, 3))]), (F((1,)), [F((1, 3)), F((1, 4))]),
                (F((3,)), [F((3, 4))])]
        C.check_peel(CHORDED_C4, 3, peel)
        with self.assertRaises(C.CheckFailed):
            C.check_peel(CHORDED_C4, 3, [peel[0], (F((1,)), [F((1, 3))]), peel[2]])
        steps = [(F((2,)), frozenset({F((1, 3)), F((1, 4)), F((3, 4))})),
                 (F((1,)), frozenset({F((3, 4))})), (F((3,)), frozenset())]
        C.check_flag(CHORDED_C4, 3, steps)
        with self.assertRaises(C.CheckFailed):
            C.check_flag(CHORDED_C4, 3, steps[:2])

    def test_peels(self):
        self.assertTrue(C.has_peel(4, 2, CHORDED_C4))
        self.assertFalse(C.has_peel(4, 2, C4))
        self.assertFalse(C.has_peel(6, 3, PLANE))
        self.assertEqual(C.SmallComplex(6, 3, PLANE).simplicial(), [])
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(4, 8)
            es = rng.sample(C.k_sets(n, 2), rng.randrange(1, n * (n - 1) // 2 + 1))
            self.assertEqual(C.has_peel(n, 2, es), C.is_chordal(n, es))

    def test_full_complex(self):
        for n, k in ((6, 2), (6, 3), (7, 4)):
            faces = C.k_sets(n, k)
            c = C.SmallComplex(n, k, faces)
            self.assertEqual(c.facets(), [(1 << n) - 1])
            self.assertEqual(c.simplicial(), C.k_sets(n, k - 1))
            self.assertEqual(C.gf2_rank(C.boundary_columns_gf2(faces)), C.full_rank(n, k))
            self.assertEqual(C.rank_exact([C.boundary(f, 3) for f in faces], 3), C.full_rank(n, k))
            self.assertTrue(C.has_peel(n, k, faces))

    def test_stacked_closed_forms(self):
        for seed in range(6):
            for n, k in ((7, 2), (7, 3), (8, 4)):
                faces, apexes = stacked(n, k, seed)
                self.assertEqual(len(faces), 1 + k * (n - k))
                for p in (2, 3, 5, None):
                    rank = C.rank_exact([C.boundary(f, p) for f in faces], p)
                    self.assertEqual(rank, C.stacked_rank(n, k))
                c = C.SmallComplex(n, k, faces)
                self.assertEqual(c.facets(), C.stacked_facets(n, k, apexes, faces))
                self.assertEqual(c.simplicial(), C.stacked_simplicial(n, k, apexes))
                self.assertEqual(sorted(C.apexes_of(frozenset(faces), k, n)), sorted(apexes))
                self.assertTrue(C.has_peel(n, k, faces))

    def test_triangulability(self):
        self.assertTrue(C.is_triangulable(frozenset(C.k_sets(6, 3)), 3, 6, 2))
        self.assertTrue(C.is_triangulable(frozenset(CHORDED_C4), 2, 4, None))
        self.assertFalse(C.is_triangulable(frozenset(C4), 2, 4, 3))
        self.assertFalse(C.is_triangulable(frozenset(PLANE), 3, 6, 2))
        self.assertTrue(C.is_triangulable(frozenset(PLANE), 3, 6, None))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark's own code: pins the stand-in generators for
the default seed, and checks that the tracer derives self times, restores
what it wraps and reports a missing boundary as absent.

Run from the repository root: python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import sys
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from saiprec import lsq, static  # noqa: E402

import generators  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0

# workload -> (n, nnz, sha256 of col_ptr, row_idx and values)
PINNED = {
    "static-cd3d": (5005, 33069, "9b20d2995a2216f4a318b497e3a3b80fb4191ac2932ee89a94632763a0d01e4b"),
    "adaptive-reservoir": (5005, 33069, "f62643cdb73b191041de6c8eee317d7ecdd36a8f4adbddea33a7a119b63942d2"),
}


def checksum(A) -> str:
    h = hashlib.sha256()
    for arr in (A.col_ptr, A.row_idx, A.values):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Generators(unittest.TestCase):
    def test_pinned_for_default_seed(self):
        for name, (n, nnz, digest) in PINNED.items():
            with self.subTest(workload=name):
                A = workloads.WORKLOADS[name].make_matrix(DEFAULT_SEED)
                self.assertEqual(A.shape, (n, n))
                self.assertEqual(A.nnz, nnz)
                self.assertEqual(checksum(A), digest)

    def test_seed_reproduces_inputs(self):
        w = workloads.WORKLOADS["adaptive-reservoir"]
        A, B = w.make_matrix(3), w.make_matrix(3)
        self.assertTrue(A.equals(B))
        self.assertFalse(A.equals(w.make_matrix(4)))
        b1 = generators.right_hand_sides(A, 3, 3)
        b2 = generators.right_hand_sides(A, 3, 3)
        self.assertTrue(all(np.array_equal(x, y) for x, y in zip(b1, b2)))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tracer = spans.Tracer("t")
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        time.sleep(0.02)
        tracer.close(inner)
        tracer.close(outer)
        totals = tracer.totals()
        self.assertEqual(tracer.parents, [-1, outer])
        self.assertAlmostEqual(totals["outer"][2], totals["outer"][1] - totals["inner"][1])
        self.assertLess(totals["outer"][2], 0.01)

    def test_missing_boundary_is_absent_and_originals_return(self):
        A = generators.convection_diffusion_3d(shape=(6, 5, 4))
        make_pattern = static.make_pattern
        augment = lsq.ColumnLeastSquares.augment
        init = lsq.ColumnLeastSquares.__dict__["__init__"]
        del lsq.ColumnLeastSquares.augment
        try:
            tracer = spans.Tracer("t")
            with spans.installed(tracer):
                P = static.static_build(A, static.make_pattern(A, "iplusa", 2))
        finally:
            lsq.ColumnLeastSquares.augment = augment
        self.assertEqual(tracer.absent, {"lsq.augment"})
        self.assertIs(static.make_pattern, make_pattern)
        self.assertIs(lsq.ColumnLeastSquares.__dict__["__init__"], init)
        totals = tracer.totals()
        self.assertEqual(totals["lsq.factor"][0], A.ncols)
        self.assertEqual(totals["static.build"][0], 1)
        self.assertGreater(tracer.counts["core.column_calls"], 0)
        self.assertEqual(P.M.ncols, A.ncols)
        gone = measure.absent_metrics(tracer.absent)
        self.assertEqual(gone, {"lsq.augment_calls", "lsq.augment_s", "psai.kept_share"})


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Bit-identity harness for the preconditioner builders.

``run`` builds a fixed set of configurations with the saiprec found under
``--src`` and writes, for each one, the arrays of M (and of the postfiltered
M_d for the static build), ``a_one_norm`` and every ``ColumnBuildRecord``
field to one ``.npz`` file. ``compare`` lists the configurations whose arrays
differ in any bit between two such files. From the repository root:

    python3 tools/compare_builds.py run --src <checkout>/src --out before.npz
    python3 tools/compare_builds.py run --src src --out after.npz
    python3 tools/compare_builds.py compare before.npz after.npz

The set: 240 small random builds (80 matrices of order 4-25 with
small-integer entries, some block-diagonal, some with a zero column, each
built with drop modes none, adaptive and fixed, on the right or the left side,
with random epsilon and l_max); the static (I+A)^3 build of the benchmark's
convection-diffusion operator and its postfiltered M_d; and the adaptive build
of the benchmark's reservoir operator for seeds 0, 1 and 2. The large
operators come from ``perfbench/generators.py``. BLAS runs on one thread
unless the environment says otherwise, so both sides round alike.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
RECORD_FIELDS = ("k", "loops_used", "pre_drop_residual", "post_drop_residual", "nnz_final",
                 "met_accuracy", "rank_flag", "guard_flag", "stalled", "tol_min", "tol_max")


def _small_matrix(rng, case: int):
    """Small-integer matrix; case % 4 picks plain, block-diagonal, one zero
    column, or both."""
    n = int(rng.integers(4, 26))
    dense = rng.integers(-3, 4, size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.15, 0.6))
    dense = dense.astype(np.float64)
    if rng.random() < 0.7:
        dense[np.diag_indices(n)] += rng.integers(1, 2 * n, size=n)
    if case % 4 in (1, 3):
        cut = int(rng.integers(1, n))
        dense[:cut, cut:] = 0.0
        dense[cut:, :cut] = 0.0
    if case % 4 in (2, 3):
        dense[:, int(rng.integers(n))] = 0.0
    return dense


def _configs():
    """(name, thunk) pairs; each thunk returns a list of (label, Preconditioner)."""
    from saiprec import SaiParams, SparseMatrix, build_preconditioner, static
    import generators

    rng = np.random.default_rng(20240601)
    for case in range(80):
        A = SparseMatrix.from_dense(_small_matrix(rng, case))
        for mode in ("none", "adaptive", "fixed"):
            params = SaiParams(
                epsilon=float(rng.uniform(0.05, 0.45)),
                l_max=int(rng.integers(1, 11)),
                drop_mode=mode,
                tol=float(10.0 ** rng.uniform(-4, -0.5)) if mode == "fixed" else None,
                side=("right", "left")[int(rng.integers(2))],
            )
            yield (f"small{case:02d}-{mode}-{params.side}",
                   lambda A=A, params=params: [("M", build_preconditioner(A, params))])

    def static_cd3d():
        A = generators.convection_diffusion_3d()
        P = static.static_build(A, static.make_pattern(A, "iplusa", 3), threads=1)
        return [("M", P), ("Md", static.postfilter(A, P, floor=0.1))]

    yield "static-cd3d", static_cd3d
    for seed in (0, 1, 2):
        params = SaiParams(epsilon=0.2, l_max=8, drop_mode="adaptive")
        yield (f"adaptive-reservoir-{seed}",
               lambda seed=seed, params=params: [
                   ("M", build_preconditioner(generators.reservoir_3d(seed, 5.0, 1.02), params))])


def _record_array(records) -> np.ndarray:
    """Records as one float64 row each; None becomes NaN (compared bitwise)."""
    return np.array([[np.nan if getattr(r, f) is None else float(getattr(r, f))
                      for f in RECORD_FIELDS] for r in records])


def cmd_run(src: Path, out: Path) -> int:
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    arrays = {}
    for name, build in _configs():
        for label, P in build():
            key = f"{name}/{label}"
            arrays[f"{key}/col_ptr"] = P.M.col_ptr
            arrays[f"{key}/row_idx"] = P.M.row_idx
            arrays[f"{key}/values"] = P.M.values
            arrays[f"{key}/a_one_norm"] = np.array([P.a_one_norm])
            arrays[f"{key}/records"] = _record_array(P.records)
        print(name, flush=True)
    np.savez_compressed(out, **arrays)
    print(f"wrote {len(arrays) // 5} builds to {out}")
    return 0


def cmd_compare(first: Path, second: Path) -> int:
    with np.load(first, allow_pickle=False) as a, np.load(second, allow_pickle=False) as b:
        keys = sorted(set(a.files) | set(b.files))
        differ = {}
        for key in keys:
            same = (key in a.files and key in b.files and a[key].dtype == b[key].dtype
                    and a[key].shape == b[key].shape and a[key].tobytes() == b[key].tobytes())
            if not same:
                name, label, what = key.split("/")
                differ.setdefault(f"{name}/{label}", []).append(what)
    builds = len({k.rsplit("/", 1)[0] for k in keys})
    for build, fields in sorted(differ.items()):
        print(f"DIFFERS {build}: {', '.join(fields)}")
    print(f"{len(differ)} of {builds} builds differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="build every configuration and write an .npz")
    p_run.add_argument("--src", type=Path, required=True, help="directory holding saiprec/")
    p_run.add_argument("--out", type=Path, required=True)
    p_cmp = sub.add_parser("compare", help="list the builds that differ between two files")
    p_cmp.add_argument("first", type=Path)
    p_cmp.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.src, args.out)
    return cmd_compare(args.first, args.second)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Iteration-count harness for the Krylov solvers.

``run`` runs the benchmark's solves with the saiprec found under ``--src``
and writes, for each one, ``iters``, ``converged``, ``matvecs`` and
``final_rel_residual`` to one ``.npz`` file. ``compare`` lists the solves
whose iteration count or convergence differs between two such files, and
reports the largest change of the other two fields. From the repository root:

    python3 tools/compare_solves.py run --src <checkout>/src --out before.npz
    python3 tools/compare_solves.py run --src src --out after.npz
    python3 tools/compare_solves.py compare before.npz after.npz

The solves are those of ``perfbench/workloads.py`` at seed 0: right-
preconditioned BiCGStab and GMRES(50) on every right-hand side of both
benchmark operators, with the static (I+A)^3 M and its postfiltered M_d of
the convection-diffusion operator and the adaptive M of the reservoir
operator. The same two solvers then run left-preconditioned on every
right-hand side of the reservoir operator, with an adaptive M built with
``side="left"`` (label ``M-left``). ``compare`` counts the two sides
apart. BLAS runs on one thread unless the environment says otherwise, so
both sides round alike.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
FIELDS = ("iters", "converged", "matvecs", "final_rel_residual")


def cmd_run(src: Path, out: Path) -> int:
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    from saiprec import core, krylov, psai

    import generators
    import workloads

    arrays = {}

    def record(key, report):
        arrays[key] = np.array([float(getattr(report, f)) for f in FIELDS])

    with tempfile.TemporaryDirectory() as tmp:
        for name, w in workloads.WORKLOADS.items():
            A = w.make_matrix(SEED)
            path = Path(tmp) / "A.mtx"
            core.save_matrix_market(path, A)
            rhs = generators.right_hand_sides(A, SEED, w.rhs_count)
            it = workloads.run_pipeline(w, path, rhs, Path(tmp))
            for s in it.solves:
                record(f"{name}/{s.label}/{s.method}/{s.rhs:02d}", s.report)
            print(f"{name}: {len(it.solves)} solves", flush=True)
            if w.matrix != "reservoir":
                continue
            left = dataclasses.replace(workloads.ADAPTIVE, side="left")
            M = psai.build_preconditioner(it.A, left, threads=1)
            for i, b in enumerate(rhs):
                for params in workloads.SOLVERS:
                    _, rep = krylov.solve(it.A, b, M=M,
                                          params=dataclasses.replace(params, side="left"))
                    record(f"{name}/M-left/{params.method}/{i:02d}", rep)
            print(f"{name}: {2 * len(rhs)} left-preconditioned solves", flush=True)
    np.savez_compressed(out, **arrays)
    print(f"wrote {len(arrays)} solves to {out}")
    return 0


def _side(key: str) -> str:
    return "left" if "/M-left/" in key else "right"


def cmd_compare(first: Path, second: Path) -> int:
    with np.load(first, allow_pickle=False) as a, np.load(second, allow_pickle=False) as b:
        keys = sorted(set(a.files) | set(b.files))
        moved = []
        matvecs, residual, total = {}, {}, {}
        for key in keys:
            side = _side(key)
            total[side] = total.get(side, 0) + 1
            if key not in a.files or key not in b.files:
                moved.append((key, f"MISSING {key}: only in "
                                   f"{first if key in a.files else second}"))
                continue
            (ia, ca, ma, ra), (ib, cb, mb, rb) = a[key], b[key]
            if ia != ib or ca != cb:
                moved.append((key, f"MOVED {key}: iters {ia:g} -> {ib:g} ({ib - ia:+g}), "
                                   f"converged {bool(ca)} -> {bool(cb)}"))
            matvecs[side] = max(matvecs.get(side, 0.0), abs(mb - ma))
            residual[side] = max(residual.get(side, 0.0), abs(rb - ra) / ra if ra else abs(rb))
    for _, line in moved:
        print(line)
    for side in sorted(total):
        count = sum(_side(key) == side for key, _ in moved)
        print(f"{side} side: {count} of {total[side]} solves changed iteration count or "
              f"convergence; largest matvecs change {matvecs.get(side, 0.0):g}, largest "
              f"relative change of final_rel_residual {residual.get(side, 0.0):.3g}")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every solve and write an .npz")
    p_run.add_argument("--src", type=Path, required=True, help="directory holding saiprec/")
    p_run.add_argument("--out", type=Path, required=True)
    p_cmp = sub.add_parser("compare", help="list the solves whose iteration count moved")
    p_cmp.add_argument("first", type=Path)
    p_cmp.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.src, args.out)
    return cmd_compare(args.first, args.second)


if __name__ == "__main__":
    raise SystemExit(main())

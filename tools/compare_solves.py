#!/usr/bin/env python3
"""Bit-identity harness for the Krylov solvers.

``run`` runs the benchmark's solves with the saiprec found under ``--src``
and writes, for each one, ``iters``, ``converged``, ``matvecs`` and
``final_rel_residual`` and the SHA-256 digests of its iterate and of its
residual history to one ``.npz`` file. ``compare`` lists every solve that
differs between two such files in any bit of any of these, naming what
differs, counts them per side, and exits 1 if any solve differs or is
missing on one side. From the repository root:

    python3 tools/compare_solves.py run --src <checkout>/src --out before.npz
    python3 tools/compare_solves.py run --src src --out after.npz
    python3 tools/compare_solves.py compare before.npz after.npz

The solves are those of ``perfbench/workloads.py`` at seed 0: right-
preconditioned BiCGStab and GMRES(50) on every right-hand side of both
benchmark operators, with the static (I+A)^3 M and its postfiltered M_d of
the convection-diffusion operator and the adaptive M of the reservoir
operator. The same two solvers then run left-preconditioned on every
right-hand side of the reservoir operator, with an adaptive M built with
``side="left"`` (label ``M-left``), and unpreconditioned (``side="none"``,
label ``none``) on the first ``NONE_RHS`` right-hand sides of each operator.
``compare`` counts the three sides apart. BLAS runs on one thread unless the
environment says otherwise, so both sides round alike.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
NONE_RHS = 3  # right-hand sides solved without a preconditioner, per operator
FIELDS = ("iters", "converged", "matvecs", "final_rel_residual")
DIGESTS = ("iterate", "residual_history")
DIGEST_KEY = "#sha256"  # suffix of the key that holds a solve's digests


def _sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def record(arrays: dict, key: str, x, report) -> None:
    """Store one solve under ``key``: its scalar fields, and the digests of
    its iterate and residual history under ``key + DIGEST_KEY``."""
    arrays[key] = np.array([float(getattr(report, f)) for f in FIELDS])
    arrays[key + DIGEST_KEY] = np.array([_sha256(x), _sha256(report.residual_history)])


def cmd_run(src: Path, out: Path) -> int:
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    from saiprec import core, krylov, psai

    import generators
    import workloads

    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, w in workloads.WORKLOADS.items():
            A = w.make_matrix(SEED)
            path = Path(tmp) / "A.mtx"
            core.save_matrix_market(path, A)
            rhs = generators.right_hand_sides(A, SEED, w.rhs_count)
            it = workloads.run_pipeline(w, path, rhs, Path(tmp))
            for s in it.solves:
                record(arrays, f"{name}/{s.label}/{s.method}/{s.rhs:02d}", s.x, s.report)
            print(f"{name}: {len(it.solves)} solves", flush=True)
            for i, b in enumerate(rhs[:NONE_RHS]):
                for params in workloads.SOLVERS:
                    x, rep = krylov.solve(it.A, b, params=dataclasses.replace(params, side="none"))
                    record(arrays, f"{name}/none/{params.method}/{i:02d}", x, rep)
            print(f"{name}: {2 * NONE_RHS} unpreconditioned solves", flush=True)
            if w.matrix != "reservoir":
                continue
            left = dataclasses.replace(workloads.ADAPTIVE, side="left")
            M = psai.build_preconditioner(it.A, left, threads=1)
            for i, b in enumerate(rhs):
                for params in workloads.SOLVERS:
                    x, rep = krylov.solve(it.A, b, M=M,
                                          params=dataclasses.replace(params, side="left"))
                    record(arrays, f"{name}/M-left/{params.method}/{i:02d}", x, rep)
            print(f"{name}: {2 * len(rhs)} left-preconditioned solves", flush=True)
    np.savez_compressed(out, **arrays)
    print(f"wrote {len(arrays) // 2} solves to {out}")
    return 0


def _side(key: str) -> str:
    if "/M-left/" in key:
        return "left"
    return "none" if "/none/" in key else "right"


def _differences(a, b, key: str) -> list[str]:
    """What differs between the two stored copies of one solve, bit for bit."""
    moved = [f"{f} {va!r} -> {vb!r}" for f, va, vb in zip(FIELDS, a[key].tolist(), b[key].tolist())
             if np.float64(va).tobytes() != np.float64(vb).tobytes()]
    da, db = a[key + DIGEST_KEY], b[key + DIGEST_KEY]
    return moved + [name for name, ha, hb in zip(DIGESTS, da, db) if ha != hb]


def cmd_compare(first: Path, second: Path) -> int:
    with np.load(first, allow_pickle=False) as a, np.load(second, allow_pickle=False) as b:
        keys = sorted(k for k in set(a.files) | set(b.files) if not k.endswith(DIGEST_KEY))
        differ, total = [], {}
        for key in keys:
            side = _side(key)
            total[side] = total.get(side, 0) + 1
            if not all(k in f.files for f in (a, b) for k in (key, key + DIGEST_KEY)):
                in_first = key in a.files and key + DIGEST_KEY in a.files
                differ.append((side, f"MISSING {key}: only in {first if in_first else second}"))
                continue
            what = _differences(a, b, key)
            if what:
                differ.append((side, f"DIFFERS {key}: {', '.join(what)}"))
    for _, line in differ:
        print(line)
    for side in sorted(total):
        count = sum(s == side for s, _ in differ)
        print(f"{side} side: {count} of {total[side]} solves differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every solve and write an .npz")
    p_run.add_argument("--src", type=Path, required=True, help="directory holding saiprec/")
    p_run.add_argument("--out", type=Path, required=True)
    p_cmp = sub.add_parser("compare", help="list the solves that differ in any bit")
    p_cmp.add_argument("first", type=Path)
    p_cmp.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.src, args.out)
    return cmd_compare(args.first, args.second)


if __name__ == "__main__":
    raise SystemExit(main())

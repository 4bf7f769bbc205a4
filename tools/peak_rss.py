#!/usr/bin/env python3
"""Resident memory after each stage of one benchmark pass.

Runs one pass of a ``perfbench`` workload in this process, stage by stage
as ``perfbench/workloads.py::run_pipeline`` runs it, and prints the
process's current resident set (``VmRSS``) and its peak so far
(``ru_maxrss``, the number behind the benchmark's ``peak_rss_mb``) after
each stage: the inputs (the generated A, written as Matrix Market, and the
right-hand sides), the load of A, the build (the pattern, M and the
postfiltered M_d for a static workload), ``check_nonsingular``, the save of
M, and the solves. The generated A, one loaded A and the right-hand sides
stay alive through the pass, as in the benchmark's untraced run, and so
does a static pattern, as in ``run_pipeline``. The last line names the
stage that first reached the final peak. From the repository root:

    python3 tools/peak_rss.py --workload static-cd3d --seed 0
    python3 tools/peak_rss.py --workload adaptive-reservoir --src <checkout>/src

The workloads, their parameters and matrices come from ``perfbench/``
(``workloads`` and ``generators``), read as they are. BLAS runs on one
thread, as in the benchmark. Memory is in MB of 2**20 bytes.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import THREAD_VARS  # noqa: E402  (perfbench/run.py; imports nothing heavy)

for _var in THREAD_VARS:
    os.environ[_var] = "1"


def vm_rss_mb() -> float | None:
    """The current resident set of this process, or None off Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int) -> list[tuple[str, float | None, float]]:
    """(stage, VmRSS, ru_maxrss) after each stage of one pass."""
    from saiprec import core, diagnostics, krylov, psai, static

    import generators
    import workloads

    w = workloads.WORKLOADS[workload]
    rows = [("start", vm_rss_mb(), max_rss_mb())]

    def mark(stage):
        rows.append((stage, vm_rss_mb(), max_rss_mb()))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "A.mtx"
        A_gen = w.make_matrix(seed)
        core.save_matrix_market(path, A_gen)
        rhs = generators.right_hand_sides(A_gen, seed, w.rhs_count)
        mark("inputs")
        held = core.load_matrix_market(path)  # the benchmark's last setup load
        A = core.load_matrix_market(path)
        mark("load")
        if w.build == "adaptive":
            built = {"M": psai.build_preconditioner(A, workloads.ADAPTIVE, threads=1)}
        else:
            pattern = static.make_pattern(A, "iplusa", w.power)
            P = static.static_build(A, pattern, threads=1)
            built = {"M": P, "Md": static.postfilter(A, P, floor=workloads.FLOOR)}
        mark("build")
        written = built[w.solve_with[0]].M
        diagnostics.check_nonsingular(written)
        mark("check_nonsingular")
        core.save_matrix_market(Path(tmp) / "M.mtx", written)
        mark("save")
        for label in w.solve_with:
            for b in rhs:
                for params in workloads.SOLVERS:
                    krylov.solve(A, b, M=built[label], params=params)
        mark("solves")
    del held
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a perfbench workload name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding saiprec/")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    rows = run(args.workload, args.seed)
    print(f"{'stage':<20}{'VmRSS MB':>10}{'ru_maxrss MB':>14}{'peak rise':>11}")
    previous = 0.0
    for stage, rss, peak in rows:
        shown = "n/a" if rss is None else f"{rss:.1f}"
        print(f"{stage:<20}{shown:>10}{peak:>14.1f}{peak - previous:>+11.1f}")
        previous = peak
    final = rows[-1][2]
    print(f"peak {final:.1f} MB, first reached after: "
          f"{next(stage for stage, _, peak in rows if peak == final)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

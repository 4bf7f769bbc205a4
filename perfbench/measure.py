"""Runs one workload: untraced for the end-to-end metrics, traced for the
per-layer ones, with the correctness checks on every output."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import saiprec
from saiprec import core, psai

import generators
import spans
import workloads
from workloads import EPSILON

# set-up (loading A) is timed this many times before the first pass, then
# between right-hand sides at most once per SETUP_SPACING_S, so that its
# samples spread over the whole run like those of the other stages
SETUP_REPEATS = 3
SETUP_SPACING_S = 0.25

# name -> unit, in the order of BENCHMARK.json
END_TO_END = {m["name"]: m["unit"] for m in workloads.SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in workloads.SPEC["per_layer"]}
# Per-layer figures of modules that run on some workloads only (psai and the
# incremental lsq updates on adaptive builds, static on static builds, the
# pool speedup with more than one worker). They are printed in the table and
# kept in result.json, but the result line holds only the BENCHMARK.json
# metrics, which every workload measures.
LAYER_EXTRA = {
    "lsq.augment_calls": "count", "lsq.augment_s": "s",
    "lsq.shrink_calls": "count", "lsq.shrink_s": "s", "lsq.rank_flags": "count",
    "psai.column_s": "s", "psai.self_s": "s", "psai.loops_mean": "loops",
    "psai.guard_flags": "count", "psai.stalled": "count", "psai.coln": "columns",
    "psai.r_max_post": "ratio", "psai.kept_share": "ratio",
    "static.pattern_s": "s", "static.pattern_nnz": "count", "static.build_s": "s",
    "static.postfilter_s": "s", "static.kept_share": "ratio",
    "parallel.speedup": "ratio", "parallel.worker_peak_rss_mb": "MB",
}
# Printed with the end-to-end table but left out of the result line, because
# they are 0 on a healthy run (coln also on static builds, which have no
# epsilon). coln is reported per layer as psai.coln; failures go to "failed".
PRINTED_ONLY = {"coln": "columns", "failed_share": "ratio"}


class Run:
    """Operation accounting of one invocation: builds and solves attempted,
    and the reason for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def fail_raised(self, what: str):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what} raised:\n{traceback.format_exc()}")


# ----------------------------------------------------------------------
# statistics and provenance
# ----------------------------------------------------------------------


def distribution(samples):
    """(median, upper, label, n). The upper percentile is the highest one
    with at least ten samples beyond it; with fewer than 20 samples it is
    the maximum."""
    s = sorted(samples)
    n = len(s)
    median = statistics.median(s)
    if n >= 20:
        q = 1.0 - 10.0 / n
        return median, s[max(0, math.ceil(q * n) - 1)], f"p{math.floor(100 * q)}", n
    return median, s[-1], "max", n


def peak_rss_mb() -> tuple[float, float]:
    """(peak RSS of this process, largest peak RSS of a finished child such
    as a pool worker, 0 without one), in MB of 2**20 bytes. The two are
    reported apart: they need not peak at the same time, and the second
    covers one worker only."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        return "unknown"


def provenance(root: Path, w, seed: int) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "saiprec": saiprec.__version__,
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "pipeline_workers": 1,
        "traced_pool_workers": w.pool_workers,
        "seed": seed,
        "inputs": "synthetic stand-ins on the sherman3 grid 35x11x13 (n=5005); "
                  "not the published matrices",
    }


# ----------------------------------------------------------------------
# inputs and checks
# ----------------------------------------------------------------------


def make_inputs(w, seed: int, out_dir: Path):
    A = w.make_matrix(seed)
    path = out_dir / "A.mtx"
    core.save_matrix_market(path, A, comment=f"{w.name} seed {seed}: synthetic stand-in")
    return A, path, generators.right_hand_sides(A, seed, w.rhs_count)


def check_iteration(run: Run, w, it, rhs, reference=None, written: Path | None = None):
    """Count the build and every solve of one pipeline pass as operations."""
    bad = workloads.check_build(w, it)
    if reference is not None:
        for label, P in it.built.items():
            if not P.M.equals(reference.built[label].M):
                bad.append(f"{label}: differs from the first pass of this run")
    if written is not None:
        label = w.solve_with[0]
        if not core.load_matrix_market(written).equals(it.built[label].M):
            bad.append(f"{label}: written Matrix Market file does not read back equal")
    run.record(not bad, "build: " + "; ".join(bad))
    for s in it.solves:
        problem = workloads.check_solve(it.A, rhs[s.rhs], s)
        run.record(problem is None, problem or "")


def _iteration_counts(it):
    iters = {"bicgstab": 0.0, "gmres": 0.0}
    for s in it.solves:
        iters[s.method] += s.report.iters
    return iters


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def run_untraced(w, seed: int, seconds: float, out_dir: Path, run: Run):
    A_gen, path, rhs = make_inputs(w, seed, out_dir)
    setup = []
    last_setup = [-math.inf]

    def time_setup():
        t0 = time.perf_counter()
        A = core.load_matrix_market(path)
        last_setup[0] = time.perf_counter()
        setup.append(last_setup[0] - t0)
        return A

    def spaced_setup():
        if time.perf_counter() - last_setup[0] >= SETUP_SPACING_S:
            time_setup()

    for _ in range(SETUP_REPEATS):
        A = time_setup()
    if not A.equals(A_gen):
        run.record(False, "load: Matrix Market round trip of A changed it")

    iterations = []
    peak_mb = None
    start = time.perf_counter()
    while True:
        try:
            it = workloads.run_pipeline(w, path, rhs, out_dir, between=spaced_setup)
        except Exception:  # noqa: BLE001 - a raising operation is a failure to report
            run.fail_raised("pipeline")
            break
        check_iteration(run, w, it, rhs, reference=iterations[0] if iterations else None,
                        written=out_dir / f"{w.name}_M.mtx" if not iterations else None)
        iterations.append(it)
        if peak_mb is None:
            # after the first pass, so that the number of passes cannot move it
            peak_mb = peak_rss_mb()
        # stop when one more pass of the mean length would overrun
        elapsed = time.perf_counter() - start
        if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            break
    if not iterations:
        return {}, {}

    samples = {
        "setup_s": setup + [it.load_s for it in iterations],
        "build_s": [it.build_s for it in iterations],
        "solve_s": [it.solve_s for it in iterations],
        "total_s": [it.total_s for it in iterations],
        "per_solve_s": [s.report.solve_time for it in iterations for s in it.solves],
    }
    first = iterations[0]
    P = first.built[w.solve_with[0]]
    iters = _iteration_counts(first)
    exact = {
        "peak_rss_mb": peak_mb[0],
        "spar": P.M.nnz / first.A.nnz,
        "iters_bicgstab": iters["bicgstab"],
        "iters_gmres": iters["gmres"],
        "coln": first.built["M"].coln(EPSILON) if w.build == "adaptive" else None,
        "failed_share": run.failed / max(run.attempted, 1),
    }
    return samples, exact


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------

# per-layer metric -> the boundaries it cannot be measured without
LAYER_NEEDS = {
    "core.load_s": ("core.load",),
    "core.save_s": ("core.save",),
    "core.assemble_s": ("core.assemble",),
    "core.column_calls": ("core.column",),
    "lsq.total_calls": ("lsq.factor",),
    "lsq.total_s": ("lsq.factor",),
    "lsq.factor_calls": ("lsq.factor",),
    "lsq.factor_s": ("lsq.factor",),
    "lsq.augment_calls": ("lsq.augment",),
    "lsq.augment_s": ("lsq.augment",),
    "lsq.shrink_calls": ("lsq.shrink",),
    "lsq.shrink_s": ("lsq.shrink",),
    "lsq.block_rows_mean": ("lsq.factor",),
    "lsq.block_cols_mean": ("lsq.factor",),
    "psai.column_s": ("psai.column",),
    "psai.self_s": ("psai.column",),
    "psai.kept_share": ("lsq.factor", "lsq.augment"),
    "static.pattern_s": ("static.pattern",),
    "static.build_s": ("static.build",),
    "static.postfilter_s": ("static.postfilter",),
    "parallel.map_s": ("parallel.map",),
    "parallel.speedup": ("parallel.map",),
    "krylov.apply_a_s": ("krylov.apply_a",),
    "krylov.apply_m_s": ("krylov.apply_m",),
    "krylov.self_s": ("krylov.solve",),
    "krylov.apply_m_gflops": ("krylov.apply_m",),
    "diagnostics.nonsingular_s": ("diagnostics.nonsingular",),
}


def layer_values(w, it, tracer: spans.Tracer, untraced_total: float, parallel: dict):
    """(values, absent) of one traced pass. A metric whose boundary was not
    entered, or whose module does not run on this workload, is left out of
    ``values``; one whose boundary no longer exists is in ``absent``."""
    totals = tracer.totals()
    counts = tracer.counts

    def total(name):
        return totals[name][1] if name in totals else None

    def calls(name):
        return float(totals[name][0]) if name in totals else None

    def self_time(name):
        return totals[name][2] if name in totals else None

    def per_block(key):
        blocks = counts.get("lsq.blocks")
        return counts.get(key, 0.0) / blocks if blocks else None

    def summed(fn, names):
        got = [fn(name) for name in names if name in totals]
        return sum(got) if got else None

    lsq_names = ("lsq.factor", "lsq.augment", "lsq.shrink")
    M = it.built["M"]
    flops = sum(2.0 * it.built[s.label].M.nnz * s.report.precond_applies for s in it.solves)
    apply_m_s = total("krylov.apply_m")
    values = {
        "core.load_s": total("core.load"),
        "core.save_s": total("core.save"),
        "core.assemble_s": total("core.assemble"),
        "core.column_calls": counts.get("core.column_calls"),
        "lsq.total_calls": summed(calls, lsq_names),
        "lsq.total_s": summed(total, lsq_names),
        "lsq.factor_calls": calls("lsq.factor"),
        "lsq.factor_s": total("lsq.factor"),
        "lsq.augment_calls": calls("lsq.augment"),
        "lsq.augment_s": total("lsq.augment"),
        "lsq.shrink_calls": calls("lsq.shrink"),
        "lsq.shrink_s": total("lsq.shrink"),
        "lsq.block_rows_mean": per_block("lsq.block_rows"),
        "lsq.block_cols_mean": per_block("lsq.block_cols"),
        "lsq.rank_flags": float(sum(r.rank_flag for r in M.records)),
        "psai.column_s": total("psai.column"),
        "psai.self_s": self_time("psai.column"),
        "static.pattern_s": total("static.pattern"),
        "static.build_s": total("static.build"),
        "static.postfilter_s": total("static.postfilter"),
        "parallel.map_s": parallel.get("map_s", total("parallel.map")),
        "parallel.speedup": parallel.get("speedup"),
        "parallel.worker_peak_rss_mb": parallel.get("worker_peak_rss_mb"),
        "krylov.matvecs": float(sum(s.report.matvecs for s in it.solves)),
        "krylov.precond_applies": float(sum(s.report.precond_applies for s in it.solves)),
        "krylov.apply_a_s": total("krylov.apply_a"),
        "krylov.apply_m_s": apply_m_s,
        "krylov.self_s": self_time("krylov.solve"),
        "krylov.apply_m_gflops": flops / apply_m_s / 1e9 if apply_m_s else None,
        "diagnostics.nonsingular_s": total("diagnostics.nonsingular"),
        "trace.overhead": it.total_s / untraced_total,
    }
    if w.build == "adaptive":
        recs = M.records
        solved = counts.get("lsq.coefs_solved")
        values.update({
            "psai.loops_mean": float(np.mean([r.loops_used for r in recs])),
            "psai.guard_flags": float(sum(r.guard_flag for r in recs)),
            "psai.stalled": float(sum(r.stalled for r in recs)),
            "psai.coln": float(M.coln(EPSILON)),
            "psai.r_max_post": M.r_max_post,
            "psai.kept_share": M.M.nnz / solved if solved else None,
        })
    else:
        values.update({
            "static.pattern_nnz": float(it.pattern_nnz),
            "static.kept_share": it.built["Md"].M.nnz / M.M.nnz,
        })
    absent = absent_metrics(tracer.absent)
    values = {k: v for k, v in values.items() if v is not None and k not in absent}
    return values, sorted(absent)


def absent_metrics(absent_boundaries) -> set:
    """Per-layer metrics that cannot be measured without these boundaries."""
    return {
        name for name, needs in LAYER_NEEDS.items()
        if any(b in absent_boundaries for b in needs)
    }


def run_traced(w, seed: int, out_dir: Path, run: Run, run_id: str):
    """An untraced reference pass, then a fully traced pass, both with one
    worker so that every span is recorded in this process. A workload with
    ``pool_workers`` also builds with that many workers, timed at
    ``map_columns`` only, and must give a bit-identical M."""
    _, path, rhs = make_inputs(w, seed, out_dir)
    boundary = spans.Tracer(run_id + "/reference")
    parallel = {}
    try:
        with spans.installed(boundary, only={"parallel.map"}):
            ref = workloads.run_pipeline(w, path, rhs, out_dir)
    except Exception:  # noqa: BLE001
        run.fail_raised("reference pipeline")
        return None
    check_iteration(run, w, ref, rhs, written=out_dir / f"{w.name}_M.mtx")

    if w.pool_workers > 1:
        pool = spans.Tracer(run_id + f"/threads{w.pool_workers}")
        try:
            with spans.installed(pool, only={"parallel.map"}):
                P = psai.build_preconditioner(ref.A, workloads.ADAPTIVE, threads=w.pool_workers)
            same = P.M.equals(ref.built["M"].M)
            run.record(same, f"M from {w.pool_workers} workers differs from M from 1 worker")
        except Exception:  # noqa: BLE001
            run.fail_raised(f"{w.pool_workers}-worker build")
        one, many = boundary.totals(), pool.totals()
        if "parallel.map" in one and "parallel.map" in many:
            parallel = {"map_s": many["parallel.map"][1],
                        "speedup": one["parallel.map"][1] / many["parallel.map"][1]}
        # the pool's workers have ended; no other child runs before this
        parallel["worker_peak_rss_mb"] = peak_rss_mb()[1] or None

    tracer = spans.Tracer(run_id)
    try:
        with spans.installed(tracer):
            it = workloads.run_pipeline(w, path, rhs, out_dir)
    except Exception:  # noqa: BLE001
        run.fail_raised("traced pipeline")
        return None
    check_iteration(run, w, it, rhs, reference=ref)
    tracer.write(out_dir / "spans.json")
    return layer_values(w, it, tracer, ref.total_s, parallel)

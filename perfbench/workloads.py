"""The benchmark workloads and the pipeline each one runs.

The pipeline calls saiprec's public API in the order ``saiprec build`` /
``solve`` / ``static`` do: load A from Matrix Market, build M, run the LU
nonsingularity check, write M, then run right-preconditioned BiCGStab and
GMRES(50) on every right-hand side. Functions are looked up on their modules
at call time, so the traced run sees every call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from saiprec import core, diagnostics, krylov, psai, static

import generators

REL_TOL = 1e-8
SOLVERS = (
    krylov.SolveParams(method="bicgstab", rel_tol=REL_TOL, max_iters=1000, side="right"),
    krylov.SolveParams(method="gmres", restart=50, rel_tol=REL_TOL, max_iters=20, side="right"),
)
EPSILON = 0.2
ADAPTIVE = psai.SaiParams(epsilon=EPSILON, l_max=8, drop_mode="adaptive")
FLOOR = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    matrix: str  # "cd3d" or "reservoir"
    build: str  # "adaptive" or "static"
    pool_workers: int = 0  # the traced run also builds with this many workers
    rhs_count: int = 64
    decades: float = 0.0  # reservoir permeability contrast, 10**decades
    shift: float = 1.0  # reservoir diagonal shift
    power: int = 0  # static pattern (I + A)**power
    solve_with: tuple = ("M",)  # "M" unfiltered, "Md" postfiltered

    def make_matrix(self, seed: int):
        if self.matrix == "cd3d":
            return generators.convection_diffusion_3d()
        return generators.reservoir_3d(seed, self.decades, self.shift)


# BENCHMARK.json names the workloads and metrics and says why each workload
# exists; the code keeps only what runs them.
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

_PARAMS = {
    "static-cd3d": dict(matrix="cd3d", build="static", power=3, rhs_count=32,
                        solve_with=("M", "Md")),
    "adaptive-reservoir": dict(matrix="reservoir", build="adaptive", decades=5.0,
                               shift=1.02, pool_workers=2),
}
WORKLOADS = {w["name"]: Workload(w["name"], w["why"], **_PARAMS[w["name"]])
             for w in SPEC["workloads"]}


@dataclass
class Solve:
    label: str  # which M
    method: str
    rhs: int
    x: np.ndarray
    report: krylov.SolveReport


@dataclass
class Iteration:
    """One pass of the pipeline with its stage wall times in seconds."""

    A: object
    built: dict  # label -> Preconditioner ("M", and "Md" for static builds)
    nonsingular: tuple  # check_nonsingular of the written M: (bool, pivot_min)
    solves: list
    load_s: float
    build_s: float
    solve_s: float
    total_s: float
    pattern_nnz: int = 0  # static builds: nnz of the prescribed pattern


def run_pipeline(w: Workload, mtx_path: Path, rhs, out_dir: Path,
                 between=None) -> Iteration:
    """One pass, in this process (one worker). ``between``, if given, is
    called after each right-hand side; its time is left out of the stage
    times."""
    t0 = time.perf_counter()
    A = core.load_matrix_market(mtx_path)
    t1 = time.perf_counter()
    pattern_nnz = 0
    if w.build == "adaptive":
        built = {"M": psai.build_preconditioner(A, ADAPTIVE, threads=1)}
    else:
        pattern = static.make_pattern(A, "iplusa", w.power)
        pattern_nnz = pattern.nnz
        P = static.static_build(A, pattern, threads=1)
        built = {"M": P, "Md": static.postfilter(A, P, floor=FLOOR)}
    t2 = time.perf_counter()
    written = w.solve_with[0]
    nonsingular = diagnostics.check_nonsingular(built[written].M)
    core.save_matrix_market(out_dir / f"{w.name}_M.mtx", built[written].M,
                            comment=f"{w.name} {written}")
    t3 = time.perf_counter()
    solves = []
    paused = 0.0
    for label in w.solve_with:
        for i, b in enumerate(rhs):
            for params in SOLVERS:
                x, rep = krylov.solve(A, b, M=built[label], params=params)
                solves.append(Solve(label, params.method, i, x, rep))
            if between is not None:
                p0 = time.perf_counter()
                between()
                paused += time.perf_counter() - p0
    t4 = time.perf_counter()
    return Iteration(A, built, nonsingular, solves, load_s=t1 - t0, build_s=t2 - t1,
                     solve_s=t4 - t3 - paused, total_s=t4 - t0 - paused,
                     pattern_nnz=pattern_nnz)


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------


def _column_residuals(A, M) -> np.ndarray:
    """||A m_k - e_k||_2 for every column, recomputed from the emitted M."""
    R = (A.to_scipy() @ M.to_scipy() - sp.identity(A.nrows, format="csc")).tocsc()
    return spla.norm(R, axis=0)


def check_build(w: Workload, it: Iteration) -> list[str]:
    """Violations of the build contract; an empty list means the build holds."""
    bad = []
    A = it.A
    for label, P in it.built.items():
        M = P.M
        if M.shape != A.shape:
            bad.append(f"{label}: shape {M.shape} != {A.shape}")
            continue
        empty = int(np.count_nonzero(np.diff(M.col_ptr) == 0))
        if empty:
            bad.append(f"{label}: {empty} empty columns")
        res = _column_residuals(A, M)
        recorded = np.array([r.post_drop_residual for r in P.records])
        pre = np.array([r.pre_drop_residual for r in P.records])
        mismatch = np.abs(res - recorded) > 1e-9 + 1e-7 * np.abs(recorded)
        if mismatch.any():
            k = int(np.argmax(np.abs(res - recorded)))
            bad.append(f"{label}: {int(mismatch.sum())} column residuals differ from the "
                       f"record (column {k}: {res[k]:.17g} vs {recorded[k]:.17g})")
        if w.build == "adaptive":
            covered = pre <= EPSILON
            over = covered & (res > 2.0 * EPSILON)
            if over.any():
                bad.append(f"{label}: {int(over.sum())} columns meet eps before dropping "
                           f"but exceed 2*eps after (max {res[over].max():.6g})")
    ok, pivot = it.nonsingular
    if not ok:
        bad.append(f"{w.solve_with[0]}: check_nonsingular failed (pivot_min {pivot:.3g})")
    return bad


def check_solve(A, b, s: Solve) -> str | None:
    """None when the solve converged on the recomputed true residual."""
    if not s.report.converged:
        return (f"{s.label} {s.method} rhs {s.rhs}: not converged after "
                f"{s.report.iters:g} steps (rel residual {s.report.final_rel_residual:.3e})")
    rel = float(np.linalg.norm(b - A.to_scipy() @ s.x) / np.linalg.norm(b))
    if not rel < REL_TOL:
        return f"{s.label} {s.method} rhs {s.rhs}: recomputed rel residual {rel:.3e} >= {REL_TOL:g}"
    return None

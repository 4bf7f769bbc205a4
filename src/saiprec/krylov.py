"""Preconditioned BiCGStab and restarted GMRES(m).

Both solvers start from x0 = 0, apply the preconditioner from the right
(solve A M y = b, x = M y) or the left (solve M A x = M b), and only report
convergence after recomputing the true residual ||b - A x||_2 / ||b||_2 of the
original system. BiCGStab counts full steps with converged half-steps reported
as +0.5 (one full step performs two products with A); GMRES counts the total
number of inner Arnoldi steps across restarts. GMRES keeps its Krylov basis as
the rows of one array and orthogonalizes by classical Gram-Schmidt, each pass
two products with the basis, with a second pass only when the first cancels
much of the vector. Products with A and M run on each matrix's cached CSR
copy. ``SolveReport.reason`` says why a solve stopped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import SparseMatrix

_REORTH_THRESHOLD = 0.7071  # second CGS pass when the first loses half the mass
_BREAKDOWN_FLOOR = 1e-300


@dataclass(frozen=True)
class SolveParams:
    method: str = "bicgstab"  # "bicgstab" or "gmres"
    restart: int = 50
    rel_tol: float = 1e-8
    max_iters: int = 1000
    side: str = "right"  # "right", "left" or "none"

    def __post_init__(self):
        if self.method not in ("bicgstab", "gmres"):
            raise ValueError("method must be 'bicgstab' or 'gmres'")
        if not 0.0 < self.rel_tol < 1.0:  # also rejects NaN and inf
            raise ValueError("rel_tol must be positive and below 1")
        if self.restart < 1:
            raise ValueError("restart length must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.side not in ("right", "left", "none"):
            raise ValueError("side must be 'right', 'left' or 'none'")


@dataclass
class SolveReport:
    converged: bool = False
    iters: float = 0.0
    matvecs: int = 0
    precond_applies: int = 0
    final_rel_residual: float = np.inf
    solve_time: float = 0.0
    breakdown: bool = False
    stagnated: bool = False
    residual_history: list = field(default_factory=list)
    # why the solve stopped, set at every exit: "converged", "max_iters",
    # "breakdown", "stagnated", or "non-finite" (a residual or Arnoldi norm
    # became NaN or inf)
    reason: str = ""

    def stop(self, reason: str):
        """Record why the solve stopped; a converged solve says so."""
        self.reason = "converged" if self.converged else reason
        self.breakdown = reason == "breakdown"
        self.stagnated = reason == "stagnated"


class _Operators:
    """Wraps A and optional M into the preconditioned operator, with counts."""

    def __init__(self, A: SparseMatrix, M, side: str):
        self.A = A.to_csr()
        if M is None:
            side = "none"
        self.M = M.to_csr() if M is not None else None
        self.side = side
        self.matvecs = 0
        self.precond_applies = 0

    def apply_a(self, v):
        self.matvecs += 1
        return self.A @ v

    def apply_m(self, v):
        self.precond_applies += 1
        return self.M @ v

    def op(self, v):
        if self.side == "right":
            return self.apply_a(self.apply_m(v))
        if self.side == "left":
            return self.apply_m(self.apply_a(v))
        return self.apply_a(v)

    def rhs(self, b):
        return self.apply_m(b) if self.side == "left" else b

    def to_user(self, y):
        """Map the iterate of the preconditioned system to the original x."""
        return self.apply_m(y) if self.side == "right" else y

    def true_rel_residual(self, x, b, bnorm):
        return float(np.linalg.norm(b - self.apply_a(x)) / bnorm)


def _unwrap_preconditioner(M):
    if M is None:
        return None
    if isinstance(M, SparseMatrix):
        return M
    return M.M  # Preconditioner


def _checked_rhs(A: SparseMatrix, b) -> np.ndarray:
    """``b`` as a float array, after checking its shape and finiteness."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.nrows,):
        raise ValueError(f"right-hand side must have shape ({A.nrows},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    return b


def bicgstab(A: SparseMatrix, b, M=None, params: SolveParams = SolveParams()):
    """BiCGStab from the standard template, preconditioned per ``params.side``."""
    start = time.perf_counter()
    b = _checked_rhs(A, b)
    ops = _Operators(A, _unwrap_preconditioner(M), params.side)
    report = SolveReport()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        report.converged = True
        report.stop("converged")
        report.final_rel_residual = 0.0
        report.solve_time = time.perf_counter() - start
        return np.zeros(A.ncols), report

    rhs = ops.rhs(b)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        # left preconditioner annihilated b: no usable information
        report.stop("breakdown")
        report.final_rel_residual = 1.0
        report.solve_time = time.perf_counter() - start
        return np.zeros(A.ncols), report
    y = np.zeros(A.ncols)
    r = rhs.copy()
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)

    def accept(y_curr, iters):
        x = ops.to_user(y_curr)
        rel = ops.true_rel_residual(x, b, bnorm)
        report.final_rel_residual = rel
        if rel < params.rel_tol:
            report.converged = True
            report.iters = iters
            return x
        return None

    x_out = None
    stop = "max_iters"
    it = 0
    for it in range(1, params.max_iters + 1):
        rho_new = float(r_hat @ r)
        if abs(rho_new) < _BREAKDOWN_FLOOR:
            stop = "breakdown"
            break
        if it == 1:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        rho = rho_new
        v = ops.op(p)
        denom = float(r_hat @ v)
        if abs(denom) < _BREAKDOWN_FLOOR:
            stop = "breakdown"
            break
        alpha = rho / denom
        s = r - alpha * v
        h = y + alpha * p
        s_norm = float(np.linalg.norm(s))
        if not math.isfinite(s_norm):
            stop = "non-finite"
            break
        report.residual_history.append(s_norm / rhs_norm)
        if s_norm / rhs_norm < params.rel_tol:
            x_out = accept(h, it - 0.5)
            if x_out is not None:
                break
        t = ops.op(s)
        tt = float(t @ t)
        if tt < _BREAKDOWN_FLOOR:
            stop = "breakdown"
            y = h
            break
        omega = float(t @ s) / tt
        y = h + omega * s
        r = s - omega * t
        r_norm = float(np.linalg.norm(r))
        if not math.isfinite(r_norm):
            stop = "non-finite"
            break
        report.residual_history.append(r_norm / rhs_norm)
        if r_norm / rhs_norm < params.rel_tol:
            x_out = accept(y, float(it))
            if x_out is not None:
                break
        if abs(omega) < _BREAKDOWN_FLOOR:
            stop = "breakdown"
            break

    if x_out is None:
        x_out = ops.to_user(y)
        report.final_rel_residual = ops.true_rel_residual(x_out, b, bnorm)
        report.converged = report.final_rel_residual < params.rel_tol
        report.iters = float(it)
    report.stop(stop)
    report.matvecs = ops.matvecs
    report.precond_applies = ops.precond_applies
    report.solve_time = time.perf_counter() - start
    return x_out, report


def gmres_restart(A: SparseMatrix, b, M=None, params: SolveParams = SolveParams(method="gmres")):
    """Restarted GMRES(m) with classical Gram-Schmidt Arnoldi on a row basis.

    The basis vectors are the rows of ``V``, so one pass against all of them
    is two BLAS products: ``h = V[:j+1] @ w``, then ``w -= h @ V[:j+1]``. A
    second pass runs when the first leaves less than ``_REORTH_THRESHOLD`` of
    the vector's norm; classical Gram-Schmidt with such a pass is as stable
    as modified Gram-Schmidt with reorthogonalization (Giraud, Langou &
    Rozloznik, 2005). The Hessenberg columns and Givens rotations are Python
    floats. ``params.max_iters`` caps the number of restart cycles;
    ``report.iters`` counts total inner steps. A cycle that makes no progress
    sets the stagnation flag and stops; a NaN or infinite residual or Arnoldi
    norm stops the solve at once, keeping the last finished cycle's iterate.
    """
    start = time.perf_counter()
    b = _checked_rhs(A, b)
    ops = _Operators(A, _unwrap_preconditioner(M), params.side)
    report = SolveReport()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        report.converged = True
        report.stop("converged")
        report.final_rel_residual = 0.0
        report.solve_time = time.perf_counter() - start
        return np.zeros(A.ncols), report

    m = params.restart
    n = A.ncols
    x = np.zeros(n)  # iterate of the preconditioned system (y for right side)
    rhs = ops.rhs(b)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        report.stop("breakdown")
        report.final_rel_residual = 1.0
        report.solve_time = time.perf_counter() - start
        return np.zeros(A.ncols), report
    inner_total = 0
    prev_beta = None
    stop = "max_iters"

    def finish(x_curr, converged_hint):
        xu = ops.to_user(x_curr)
        rel = ops.true_rel_residual(xu, b, bnorm)
        report.final_rel_residual = rel
        report.converged = converged_hint and rel < params.rel_tol
        report.stop(stop)
        report.iters = float(inner_total)
        report.matvecs = ops.matvecs
        report.precond_applies = ops.precond_applies
        report.solve_time = time.perf_counter() - start
        return xu

    for _cycle in range(params.max_iters):
        if ops.side == "right":
            r = rhs - ops.apply_a(ops.to_user(x))
        elif ops.side == "left":
            r = ops.apply_m(b - ops.apply_a(x))
        else:
            r = rhs - ops.apply_a(x)
        beta = float(np.linalg.norm(r))
        if not math.isfinite(beta):
            stop = "non-finite"
            break
        if beta / rhs_norm < params.rel_tol:
            xu = finish(x, True)
            if report.converged:
                return xu, report
            if beta == 0.0:
                # exactly solved in the preconditioned space but not in the
                # original one: no direction left to improve
                stop = "breakdown"
                break
        if prev_beta is not None and beta >= prev_beta * (1.0 - 1e-12):
            # a restart that reproduces its starting residual can never
            # make progress again: same space, same minimizer
            stop = "stagnated"
            break
        prev_beta = beta
        V = np.zeros((m + 1, n))
        V[0] = r / beta
        R = []  # columns of the rotated (upper triangular) Hessenberg matrix
        cs, sn = [], []
        g = [beta]  # rotated right-hand side beta * e_1
        hit_tol = False
        for j in range(m):
            w = ops.op(V[j])
            norm_before = float(np.linalg.norm(w))
            basis = V[: j + 1]
            h = basis @ w
            w -= h @ basis
            h_next = float(np.linalg.norm(w))
            if h_next < _REORTH_THRESHOLD * norm_before:
                c = basis @ w
                w -= c @ basis
                h += c
                h_next = float(np.linalg.norm(w))
            inner_total += 1
            if not math.isfinite(h_next):
                stop = "non-finite"
                break
            happy = h_next == 0.0
            if not happy:
                V[j + 1] = w / h_next
            # apply accumulated Givens rotations, then form the new one
            col = h.tolist()
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      -sn[i] * col[i] + cs[i] * col[i + 1])
            denom = math.hypot(col[j], h_next)
            if denom == 0.0:
                cs.append(1.0)
                sn.append(0.0)
            else:
                cs.append(col[j] / denom)
                sn.append(h_next / denom)
            col[j] = cs[j] * col[j] + sn[j] * h_next
            R.append(col)
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]
            inner_res = abs(g[j + 1]) / rhs_norm
            report.residual_history.append(inner_res)
            if happy or inner_res < params.rel_tol:
                hit_tol = True
                break
        if stop == "non-finite":
            break
        # back-substitute for the small triangular system, update the iterate
        jj = len(R)
        y_small = [0.0] * jj
        for i in range(jj - 1, -1, -1):
            if R[i][i] == 0.0:  # exactly solved direction; coefficient is free
                continue
            acc = g[i]
            for k in range(i + 1, jj):
                acc -= R[k][i] * y_small[k]
            y_small[i] = acc / R[i][i]
        x = x + np.array(y_small) @ V[:jj]
        if hit_tol:
            xu = finish(x, True)
            if report.converged:
                return xu, report
            # true residual not small enough yet: keep restarting

    return finish(x, False), report


def solve(A: SparseMatrix, b, M=None, params: SolveParams = SolveParams()):
    if params.method == "gmres":
        return gmres_restart(A, b, M, params)
    return bicgstab(A, b, M, params)

"""Preconditioned BiCGStab and restarted GMRES(m).

Both solvers start from x0 = 0, apply the preconditioner from the right
(solve A M y = b, x = M y) or the left (solve M A x = M b), and only report
convergence after recomputing the true residual ||b - A x||_2 / ||b||_2 of the
original system. BiCGStab counts full steps with converged half-steps reported
as +0.5 (one full step performs two products with A); GMRES counts the total
number of inner Arnoldi steps across restarts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import SparseMatrix

_REORTH_THRESHOLD = 0.7071  # reorthogonalize when MGS loses half the mass
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
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
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


class _Operators:
    """Wraps A and optional M into the preconditioned operator, with counts."""

    def __init__(self, A: SparseMatrix, M, side: str):
        self.A = A.to_scipy()
        if M is None:
            side = "none"
        self.M = M.to_scipy() if M is not None else None
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
        report.final_rel_residual = 0.0
        report.solve_time = time.perf_counter() - start
        return np.zeros(A.ncols), report

    rhs = ops.rhs(b)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        # left preconditioner annihilated b: no usable information
        report.breakdown = True
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
    it = 0
    for it in range(1, params.max_iters + 1):
        rho_new = float(r_hat @ r)
        if abs(rho_new) < _BREAKDOWN_FLOOR:
            report.breakdown = True
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
            report.breakdown = True
            break
        alpha = rho / denom
        s = r - alpha * v
        h = y + alpha * p
        s_norm = float(np.linalg.norm(s))
        report.residual_history.append(s_norm / rhs_norm)
        if s_norm / rhs_norm < params.rel_tol:
            x_out = accept(h, it - 0.5)
            if x_out is not None:
                break
        t = ops.op(s)
        tt = float(t @ t)
        if tt < _BREAKDOWN_FLOOR:
            report.breakdown = True
            y = h
            break
        omega = float(t @ s) / tt
        y = h + omega * s
        r = s - omega * t
        r_norm = float(np.linalg.norm(r))
        report.residual_history.append(r_norm / rhs_norm)
        if r_norm / rhs_norm < params.rel_tol:
            x_out = accept(y, float(it))
            if x_out is not None:
                break
        if abs(omega) < _BREAKDOWN_FLOOR:
            report.breakdown = True
            break

    if x_out is None:
        x_out = ops.to_user(y)
        report.final_rel_residual = ops.true_rel_residual(x_out, b, bnorm)
        report.converged = report.final_rel_residual < params.rel_tol
        report.iters = float(it)
    report.matvecs = ops.matvecs
    report.precond_applies = ops.precond_applies
    report.solve_time = time.perf_counter() - start
    return x_out, report


def gmres_restart(A: SparseMatrix, b, M=None, params: SolveParams = SolveParams(method="gmres")):
    """Restarted GMRES(m) with modified Gram-Schmidt Arnoldi.

    One reorthogonalization pass runs whenever MGS loses more than half of a
    vector's mass. ``params.max_iters`` caps the number of restart cycles;
    ``report.iters`` counts total inner steps. A cycle that makes no progress
    sets the stagnation flag and stops.
    """
    start = time.perf_counter()
    b = _checked_rhs(A, b)
    ops = _Operators(A, _unwrap_preconditioner(M), params.side)
    report = SolveReport()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        report.converged = True
        report.final_rel_residual = 0.0
        report.solve_time = time.perf_counter() - start
        return np.zeros(A.ncols), report

    m = params.restart
    n = A.ncols
    x = np.zeros(n)  # iterate of the preconditioned system (y for right side)
    rhs = ops.rhs(b)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        report.breakdown = True
        report.final_rel_residual = 1.0
        report.solve_time = time.perf_counter() - start
        return np.zeros(A.ncols), report
    inner_total = 0
    prev_beta = None

    def user_x(x_curr):
        return ops.to_user(x_curr)

    def finish(x_curr, converged_hint):
        xu = user_x(x_curr)
        rel = ops.true_rel_residual(xu, b, bnorm)
        report.final_rel_residual = rel
        report.converged = converged_hint and rel < params.rel_tol
        report.iters = float(inner_total)
        report.matvecs = ops.matvecs
        report.precond_applies = ops.precond_applies
        report.solve_time = time.perf_counter() - start
        return xu

    for _cycle in range(params.max_iters):
        if ops.side == "right":
            r = rhs - ops.apply_a(user_x(x))
        elif ops.side == "left":
            r = ops.apply_m(b - ops.apply_a(x))
        else:
            r = rhs - ops.apply_a(x)
        beta = float(np.linalg.norm(r))
        if beta / rhs_norm < params.rel_tol:
            xu = finish(x, True)
            if report.converged:
                return xu, report
            if beta == 0.0:
                # exactly solved in the preconditioned space but not in the
                # original one: no direction left to improve
                report.breakdown = True
                break
        if prev_beta is not None and beta >= prev_beta * (1.0 - 1e-12):
            # a restart that reproduces its starting residual can never
            # make progress again: same space, same minimizer
            report.stagnated = True
            break
        prev_beta = beta
        V = np.zeros((n, m + 1))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[:, 0] = r / beta
        j_done = 0
        hit_tol = False
        for j in range(m):
            w = ops.op(V[:, j])
            norm_before = float(np.linalg.norm(w))
            for i in range(j + 1):
                H[i, j] = float(V[:, i] @ w)
                w -= H[i, j] * V[:, i]
            if float(np.linalg.norm(w)) < _REORTH_THRESHOLD * norm_before:
                for i in range(j + 1):
                    c = float(V[:, i] @ w)
                    H[i, j] += c
                    w -= c * V[:, i]
            H[j + 1, j] = float(np.linalg.norm(w))
            inner_total += 1
            j_done = j + 1
            happy = H[j + 1, j] == 0.0
            if not happy:
                V[:, j + 1] = w / H[j + 1, j]
            # apply accumulated Givens rotations, then form the new one
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            inner_res = abs(g[j + 1]) / rhs_norm
            report.residual_history.append(inner_res)
            if happy or inner_res < params.rel_tol:
                hit_tol = True
                break
        # solve the small triangular system and update the iterate
        jj = j_done
        y_small = np.zeros(jj)
        for i in range(jj - 1, -1, -1):
            if H[i, i] == 0.0:  # exactly solved direction; coefficient is free
                continue
            y_small[i] = (g[i] - H[i, i + 1 : jj] @ y_small[i + 1 : jj]) / H[i, i]
        x = x + V[:, :jj] @ y_small
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

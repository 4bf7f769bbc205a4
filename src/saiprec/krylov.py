"""Preconditioned BiCGStab and restarted GMRES(m) on one solve scaffold.

Both solvers start from x0 = 0 and apply the preconditioner from the right
(solve A M y = b, x = M y) or the left (solve M A x = M b). Everything but
the iteration itself lives in ``_Operators``, built once per solve: the
checks of the shapes and of the right-hand side, the products with A and M
and their counts, the two trivial exits, the one convergence test, which
recomputes the true residual ||b - A x||_2 / ||b||_2 of the original system,
and the report with its stop ``reason`` (the template's shared stopping
test; Barrett et al., 1994). BiCGStab counts full steps, a converged
half-step as +0.5; GMRES counts inner Arnoldi steps across restarts, on a
row basis orthogonalized by classical Gram-Schmidt. Products run on each
matrix's cached CSR copy.
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
    residual_history: list = field(default_factory=list)
    # why the solve stopped, set at every exit: "converged", "max_iters",
    # "breakdown", "stagnated", or "non-finite" (a residual or Arnoldi norm
    # became NaN or inf)
    reason: str = ""

    @property
    def breakdown(self) -> bool:
        return self.reason == "breakdown"

    @property
    def stagnated(self) -> bool:
        return self.reason == "stagnated"


class _Operators:
    """One solve of ``A x = b``: the checked A (square), b and M (a
    SparseMatrix of A's shape or a Preconditioner built for ``params.side``;
    None, and only None, under side "none") with product counts, the
    preconditioned operator ``op`` and its right-hand side ``rhs`` (M b on
    the left side), and the report.
    ``trivial`` names an exit at x = 0 and is empty otherwise: b = 0 has
    converged, and a left M that maps b to 0 is a breakdown. A nonzero b whose
    2-norm underflows to 0 is rejected, since no relative residual can be
    measured against it. ``accept`` is
    both solvers' convergence test; ``done`` completes the report.
    """

    def __init__(self, A: SparseMatrix, b, M, params: SolveParams):
        self.start = time.perf_counter()
        if A.nrows != A.ncols:
            raise ValueError(f"A must be square, got shape {A.shape}")
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (A.nrows,):
            raise ValueError(f"right-hand side must have shape ({A.nrows},), got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side has non-finite entries")
        if M is not None and not isinstance(M, SparseMatrix):  # a Preconditioner
            if M.side != params.side:
                raise ValueError(f"a {M.side}-side preconditioner cannot be applied "
                                 f"with side={params.side!r}")
            M = M.M
        if M is not None and params.side == "none":
            raise ValueError("a preconditioner was given with side='none'; "
                             "pass M=None or choose side 'right' or 'left'")
        if M is not None and M.shape != A.shape:
            raise ValueError(f"preconditioner has shape {M.shape}, A has shape {A.shape}")
        self.A = A.to_csr()
        self.M = M.to_csr() if M is not None else None
        self.side = params.side if M is not None else "none"
        self.rel_tol = params.rel_tol
        self.matvecs = 0
        self.precond_applies = 0
        self.report = SolveReport()
        self.b = b
        self.bnorm = float(np.linalg.norm(b))
        self.trivial = ""
        if self.bnorm == 0.0:
            if b.any():
                raise ValueError("the 2-norm of the right-hand side underflows to 0; "
                                 "rescale b")
            self.report.converged = True
            self.report.final_rel_residual = 0.0
            self.trivial = "converged"
            return
        self.rhs = self.apply_m(b) if self.side == "left" else b
        self.rhs_norm = float(np.linalg.norm(self.rhs))
        if self.rhs_norm == 0.0:
            self.report.final_rel_residual = 1.0
            self.trivial = "breakdown"

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

    def accept(self, y, iters: float):
        """Map the preconditioned iterate ``y`` to x, record x's true
        residual ||b - A x|| / ||b|| and ``iters``, and set ``converged``
        when that residual is below the tolerance. Returns x."""
        x = self.apply_m(y) if self.side == "right" else y
        rel = float(np.linalg.norm(self.b - self.apply_a(x)) / self.bnorm)
        self.report.final_rel_residual = rel
        self.report.converged = rel < self.rel_tol
        self.report.iters = iters
        return x

    def done(self, x, reason: str):
        """``(x, report)`` with the stop reason (a converged solve says so),
        the product counts and the wall time filled in."""
        rep = self.report
        rep.reason = "converged" if rep.converged else reason
        rep.matvecs = self.matvecs
        rep.precond_applies = self.precond_applies
        rep.solve_time = time.perf_counter() - self.start
        return x, rep


def bicgstab(A: SparseMatrix, b, M=None, params: SolveParams = SolveParams()):
    """BiCGStab from the standard template, preconditioned per ``params.side``."""
    ops = _Operators(A, b, M, params)
    if ops.trivial:
        return ops.done(np.zeros(A.ncols), ops.trivial)
    history = ops.report.residual_history
    y = np.zeros(A.ncols)
    r = ops.rhs.copy()
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)

    stop = "max_iters"
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
        history.append(s_norm / ops.rhs_norm)
        if s_norm / ops.rhs_norm < params.rel_tol:
            x = ops.accept(h, it - 0.5)
            if ops.report.converged:
                return ops.done(x, "converged")
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
        history.append(r_norm / ops.rhs_norm)
        if r_norm / ops.rhs_norm < params.rel_tol:
            x = ops.accept(y, float(it))
            if ops.report.converged:
                return ops.done(x, "converged")
        if abs(omega) < _BREAKDOWN_FLOOR:
            stop = "breakdown"
            break

    return ops.done(ops.accept(y, float(it)), stop)


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
    stops the solve as stagnated; a NaN or infinite residual or Arnoldi
    norm stops the solve at once, keeping the last finished cycle's iterate.
    """
    ops = _Operators(A, b, M, params)
    if ops.trivial:
        return ops.done(np.zeros(A.ncols), ops.trivial)
    m, n = params.restart, A.ncols
    x = np.zeros(n)  # iterate of the preconditioned system (y for right side)
    inner_total = 0
    prev_beta = None
    stop = "max_iters"

    for cycle in range(params.max_iters):
        r = ops.rhs - ops.op(x) if cycle else ops.rhs.copy()  # x = 0 in the first cycle
        beta = float(np.linalg.norm(r))
        if not math.isfinite(beta):
            stop = "non-finite"
            break
        if beta / ops.rhs_norm < params.rel_tol:
            xu = ops.accept(x, float(inner_total))
            if ops.report.converged:
                return ops.done(xu, "converged")
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
            inner_res = abs(g[j + 1]) / ops.rhs_norm
            ops.report.residual_history.append(inner_res)
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
            xu = ops.accept(x, float(inner_total))
            if ops.report.converged:
                return ops.done(xu, "converged")
            # true residual not small enough yet: keep restarting

    xu = ops.accept(x, float(inner_total))
    ops.report.converged = False  # only a restart or inner test converges
    return ops.done(xu, stop)


def solve(A: SparseMatrix, b, M=None, params: SolveParams = SolveParams()):
    if params.method == "gmres":
        return gmres_restart(A, b, M, params)
    return bicgstab(A, b, M, params)

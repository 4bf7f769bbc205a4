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
row basis orthogonalized by classical Gram-Schmidt.

Products run on each matrix's cached CSR copy, through the kernel behind
scipy's ``csr_matrix @ vector`` (``scipy.sparse._sparsetools.csr_matvec``),
called directly into a zeroed work vector: the same sums in the same order,
so the same bits, without the dispatch and the fresh output that ``@`` pays
on each of a solve's thousands of products. Each solver allocates its work
vectors once per solve (GMRES also its (m+1) x n basis) and writes every
product and vector update into them with ufuncs' ``out=``, in the order in
which the expression it replaces evaluates; each norm is ``sqrt(x @ x)``,
the sum ``np.linalg.norm`` forms. So the iterates, residual histories and
product counts are those of the allocating form, bit for bit. The kernel is
private to scipy, and a test pins it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .core import SparseMatrix, _as_index
from .psai import Preconditioner

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
        if _as_index(self.restart, "restart") < 1:
            raise ValueError("restart length must be at least 1")
        if _as_index(self.max_iters, "max_iters") < 1:
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


def _product(S, v, out):
    """``S @ v`` for a scipy CSR matrix ``S``, written into ``out`` (a new
    vector when None) by the kernel behind that operator. ``out`` must not
    share memory with ``v``."""
    if out is None:
        out = np.zeros(S.shape[0])
    else:
        out.fill(0.0)  # the kernel adds each row's sum to what out holds
    _csr_matvec(S.shape[0], S.shape[1], S.indptr, S.indices, S.data, v, out)
    return out


class _Operators:
    """One solve of ``A x = b``: the checked A (a square SparseMatrix), b and
    M (a SparseMatrix of A's shape or a Preconditioner built for
    ``params.side``; None, and only None, under side "none") with product
    counts, the preconditioned operator ``op`` and its right-hand side
    ``rhs`` (M b on the left side), and the report. The products write into
    a caller's work vector, or a new one when it passes none.
    ``trivial`` names an exit at x = 0 and is empty otherwise: b = 0 has
    converged, and a left M that maps b to 0 is a breakdown. A nonzero b whose
    2-norm underflows to 0 is rejected, since no relative residual can be
    measured against it. ``accept`` is
    both solvers' convergence test; ``done`` completes the report.
    """

    def __init__(self, A: SparseMatrix, b, M, params: SolveParams):
        self.start = time.perf_counter()
        if not isinstance(A, SparseMatrix):
            raise TypeError(f"A must be a SparseMatrix, got {type(A).__name__}")
        if not (M is None or isinstance(M, (SparseMatrix, Preconditioner))):
            raise TypeError("M must be None, a SparseMatrix or a Preconditioner, "
                            f"got {type(M).__name__}")
        if A.nrows != A.ncols:
            raise ValueError(f"A must be square, got shape {A.shape}")
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (A.nrows,):
            raise ValueError(f"right-hand side must have shape ({A.nrows},), got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side has non-finite entries")
        if isinstance(M, Preconditioner):
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
        self.bnorm = math.sqrt(b @ b)
        self.trivial = ""
        if self.bnorm == 0.0:
            if b.any():
                raise ValueError("the 2-norm of the right-hand side underflows to 0; "
                                 "rescale b")
            self.report.converged = True
            self.report.final_rel_residual = 0.0
            self.trivial = "converged"
            return
        self.work = np.empty(A.nrows)  # op's first product, and accept's residual
        self.rhs = self.apply_m(b) if self.side == "left" else b
        self.rhs_norm = math.sqrt(self.rhs @ self.rhs)
        if self.rhs_norm == 0.0:
            self.report.final_rel_residual = 1.0
            self.trivial = "breakdown"

    def apply_a(self, v, out=None):
        self.matvecs += 1
        return _product(self.A, v, out)

    def apply_m(self, v, out=None):
        self.precond_applies += 1
        return _product(self.M, v, out)

    def op(self, v, out=None):
        """The preconditioned operator applied to ``v``, into ``out``."""
        if self.side == "right":
            return self.apply_a(self.apply_m(v, self.work), out)
        if self.side == "left":
            return self.apply_m(self.apply_a(v, self.work), out)
        return self.apply_a(v, out)

    def accept(self, y, iters: float):
        """Map the preconditioned iterate ``y`` to x, record x's true
        residual ||b - A x|| / ||b|| and ``iters``, and set ``converged``
        when that residual is below the tolerance. Returns x."""
        x = self.apply_m(y) if self.side == "right" else y
        r = self.apply_a(x, self.work)
        np.subtract(self.b, r, out=r)
        rel = math.sqrt(r @ r) / self.bnorm
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
    p, v, s, h, t, w = (np.empty(A.ncols) for _ in range(6))  # w holds omega * v

    stop = "max_iters"
    for it in range(1, params.max_iters + 1):
        rho_new = float(r_hat @ r)
        if abs(rho_new) < _BREAKDOWN_FLOOR:
            stop = "breakdown"
            break
        if it == 1:
            np.copyto(p, r)
        else:
            beta = (rho_new / rho) * (alpha / omega)
            np.multiply(omega, v, out=w)  # p = r + beta * (p - omega * v)
            np.subtract(p, w, out=p)
            np.multiply(beta, p, out=p)
            np.add(r, p, out=p)
        rho = rho_new
        ops.op(p, v)
        denom = float(r_hat @ v)
        if abs(denom) < _BREAKDOWN_FLOOR:
            stop = "breakdown"
            break
        alpha = rho / denom
        np.multiply(alpha, v, out=s)  # s = r - alpha * v
        np.subtract(r, s, out=s)
        np.multiply(alpha, p, out=h)  # h = y + alpha * p
        np.add(y, h, out=h)
        s_norm = math.sqrt(s @ s)
        if not math.isfinite(s_norm):
            stop = "non-finite"
            break
        history.append(s_norm / ops.rhs_norm)
        if s_norm / ops.rhs_norm < params.rel_tol:
            x = ops.accept(h, it - 0.5)
            if ops.report.converged:
                return ops.done(x, "converged")
        ops.op(s, t)
        tt = float(t @ t)
        if tt < _BREAKDOWN_FLOOR:
            stop = "breakdown"
            y = h
            break
        omega = float(t @ s) / tt
        np.multiply(omega, s, out=y)  # y = h + omega * s
        np.add(h, y, out=y)
        np.multiply(omega, t, out=r)  # r = s - omega * t
        np.subtract(s, r, out=r)
        r_norm = math.sqrt(r @ r)
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
    V = np.empty((m + 1, n))  # a cycle reads only the rows it has written
    r, w, u = (np.empty(n) for _ in range(3))  # u holds a combination of rows of V
    inner_total = 0
    prev_beta = None
    stop = "max_iters"

    for cycle in range(params.max_iters):
        if cycle:
            ops.op(x, r)  # r = rhs - op(x)
            np.subtract(ops.rhs, r, out=r)
        else:
            np.copyto(r, ops.rhs)  # x = 0 in the first cycle
        beta = math.sqrt(r @ r)
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
        np.divide(r, beta, out=V[0])
        R = []  # columns of the rotated (upper triangular) Hessenberg matrix
        cs, sn = [], []
        g = [beta]  # rotated right-hand side beta * e_1
        hit_tol = False
        for j in range(m):
            ops.op(V[j], w)
            norm_before = math.sqrt(w @ w)
            basis = V[: j + 1]
            h = basis @ w
            np.subtract(w, np.matmul(h, basis, out=u), out=w)
            h_next = math.sqrt(w @ w)
            if h_next < _REORTH_THRESHOLD * norm_before:
                c = basis @ w
                np.subtract(w, np.matmul(c, basis, out=u), out=w)
                h += c
                h_next = math.sqrt(w @ w)
            inner_total += 1
            if not math.isfinite(h_next):
                stop = "non-finite"
                break
            happy = h_next == 0.0
            if not happy:
                np.divide(w, h_next, out=V[j + 1])
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
        np.add(x, np.matmul(np.array(y_small), V[:jj], out=u), out=x)
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

"""Quality metrics for (A, M) pairs and numerical verification of the
dropping guarantees (hypotheses and conclusions) on concrete matrices.

``check_nonsingular`` factors M once in single precision, in SuperLU's
symmetric mode, and refines every solve of its norm estimator in double
against M itself. A double-precision LU with partial pivoting is the one
fallback. A debug record on the ``saiprec`` logger names the LU that decided.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .core import SparseMatrix
from .psai import Preconditioner, _checked_epsilon

_EPS = np.finfo(np.float64).eps
_STRUCT_TOL = 1e-14  # entries at or below this count as structural zeros
_DENSE_INVERSE_LIMIT = 400  # error-norm checks use a dense inverse up to here
# check_nonsingular's LUs: SuperLU's symmetric mode (in single precision),
# then partial pivoting (in double)
_SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                  options={"SymmetricMode": True})
_PARTIAL = dict(permc_spec="COLAMD")
_MAX_CORRECTIONS = 8  # refinement steps allowed per solve with the single-precision LU
_REFINED = 4.0 * _EPS  # a refined solve stops at this backward error in every column
_LOG = logging.getLogger("saiprec")


@dataclass
class QualityReport:
    r_max: float
    coln: int
    spar: float
    am_minus_i_one_norm: float
    p: int
    p_d: int
    nonsingular: bool
    rcond: float
    per_column_residuals: np.ndarray


@dataclass
class GuaranteeCheck:
    name: str
    applicable: bool
    passed: bool | None
    details: dict = field(default_factory=dict)


def _check_shape(A: SparseMatrix, M: SparseMatrix, name: str = "M"):
    """Raise ``ValueError`` naming both shapes unless ``M`` has A's shape."""
    if M.shape != A.shape:
        raise ValueError(f"{name} is {M.nrows}x{M.ncols} but A is {A.nrows}x{A.ncols}")


def _residual_matrix(A: SparseMatrix, M: SparseMatrix):
    """A M - I in CSC with sorted row indices, the order that column sums add in."""
    R = (A.to_scipy() @ M.to_scipy()).tocsc() - sp.identity(A.nrows, format="csc")
    R.sum_duplicates()
    return R


def _column_sums(S, values) -> np.ndarray:
    """Sum of ``values`` (aligned with ``S.data``) over each column of the CSC
    matrix S, added in the order of scipy's ``S.sum(axis=0)``."""
    sums = np.zeros(S.shape[1])
    nonempty = np.flatnonzero(np.diff(S.indptr))
    sums[nonempty] = np.add.reduceat(values, S.indptr[nonempty])
    return sums


def _column_norms(S) -> np.ndarray:
    """2-norm of every column of the CSC matrix S."""
    return np.sqrt(_column_sums(S, S.data * S.data))


def _column_pass(S):
    """``(norm, ones, twos, p)`` of the CSC matrix S from one pass over its
    entries: the matrix 1-norm, the column 1-norms and 2-norms, and p, the
    largest count of entries above ``_STRUCT_TOL`` in one column."""
    mag = np.abs(S.data)
    ones = _column_sums(S, mag)
    counts = np.diff(np.concatenate(([0], np.cumsum(mag > _STRUCT_TOL)))[S.indptr])
    return float(np.max(ones, initial=0.0)), ones, _column_norms(S), int(np.max(counts, initial=0))


class _RefinedLU:
    """Solves with M = S or M^T from one single-precision LU, refined in double.

    M is scaled by the power of two 2**-e that brings max|m| into [0.5, 1)
    and its values alone are cast to float32 (the index arrays are S's own),
    so the cast neither overflows nor flushes M's largest entries. Every
    solve starts from the single-precision solve and adds corrections
    d = LU^-1 r, each from the residual r = x - M w computed in double
    against M itself and cast to float32 after division by its peak. A
    solve stops once each column's backward error ||r||_1 / (||M|| ||w||_1
    + ||x||_1) is at most ``_REFINED``, with ||M^T||_1 = ||M||_inf for the
    transposed solves. A solve that does not stop within
    ``_MAX_CORRECTIONS`` corrections, or turns non-finite, raises
    RuntimeError, as does SuperLU when it finds the scaled M exactly
    singular.
    """

    def __init__(self, S, norm: float):
        self.S = S
        # ||M||_inf from row sums, without forming M^T
        inf_norm = np.bincount(S.indices, weights=np.abs(S.data), minlength=S.shape[0]).max()
        self.norms = {"N": norm, "T": float(inf_norm)}
        self.exponent = np.frexp(max(S.data.max(), -S.data.min()))[1]
        values = np.ldexp(S.data, -self.exponent).astype(np.float32)
        self.lu = splu(sp.csc_matrix((values, S.indices, S.indptr), shape=S.shape), **_SYMMETRIC)
        self.corrections = 0  # correction steps taken, over all solves

    def _single(self, R, trans: str):
        """M^-1 R (or M^-T R) from the single-precision LU alone."""
        peak = np.abs(R).max(axis=0)
        peak = np.where(peak > 0.0, peak, 1.0)
        Y = self.lu.solve((R / peak).astype(np.float32), trans=trans)
        return Y * np.ldexp(peak, -self.exponent)

    def solve(self, X, trans: str = "N"):
        X = np.asarray(X, dtype=np.float64)
        B = X.reshape(len(X), -1)
        op, norm = (self.S.T if trans == "T" else self.S), self.norms[trans]
        W = self._single(B, trans)
        for step in range(_MAX_CORRECTIONS + 1):
            R = B - op @ W
            r_norms = np.abs(R).sum(axis=0)
            if not np.isfinite(r_norms).all():
                raise RuntimeError("a refined solve turned non-finite")
            if np.all(r_norms <= _REFINED * (norm * np.abs(W).sum(axis=0) + np.abs(B).sum(axis=0))):
                return W.reshape(X.shape)
            if step < _MAX_CORRECTIONS:
                W += self._single(R, trans)
                self.corrections += 1
        raise RuntimeError(f"a refined solve did not converge in {_MAX_CORRECTIONS} corrections")


def _inverse_one_norm(S, norm: float, refined: bool):
    """``(est, eta, corrections)`` from one LU of M = S: the single-precision
    ``_RefinedLU`` when ``refined``, else the double ``COLAMD`` LU. ``est`` is
    the Hager-Higham estimate (Higham & Tisseur, 2000) of ||M^-1||_1 from the
    LU's solves, eta the backward error ||M w - v||_1 / (||M||_1 ||w||_1 +
    ||v||_1), with ||M||_1 = ``norm``, of the solve w = M^-1 v it rests on,
    and ``corrections`` the refinement steps taken. ``onenormest``'s random
    column is seeded and the caller's numpy state put back. Raises
    RuntimeError when SuperLU finds M exactly singular or a refined solve
    does not converge."""
    lu = _RefinedLU(S, norm) if refined else splu(S, **_PARTIAL)
    inverse = LinearOperator(S.shape, matvec=lu.solve, matmat=lu.solve, dtype=np.float64,
                             rmatvec=lambda x: lu.solve(x, trans="T"),
                             rmatmat=lambda X: lu.solve(X, trans="T"))
    state = np.random.get_state()
    np.random.seed(0)
    try:
        est, v, w = onenormest(inverse, compute_v=True, compute_w=True)
    finally:
        np.random.set_state(state)
    eta = np.abs(S @ w - v).sum() / (norm * np.abs(w).sum() + np.abs(v).sum())
    return float(est), eta, lu.corrections if refined else 0


def check_nonsingular(M: SparseMatrix):
    """``(nonsingular, rcond)`` of a square M from its sparse LU.

    M is called numerically nonsingular iff rcond = 1 / (||M||_1 *
    est ||M^-1||_1) > n*eps, with ||M^-1||_1 estimated from the LU's solves;
    the estimate is a lower bound (up to rounding), so rcond is at least the
    true 1-norm reciprocal condition number. The verdict does not depend on
    the LU's pivot order, so M is factored for speed in SuperLU's symmetric
    mode (``MMD_AT_PLUS_A``, diagonal pivots down to 0.01 of their column),
    and in single precision, which halves the bytes of L and U's values.
    Each of the estimator's solves is refined in double against M itself
    (see ``_RefinedLU``) until its backward error is a few eps, so the
    estimate rests on solves as accurate as a double LU's. Refinement
    converges when kappa_1(M) * 2**-24 * growth < 1 (Carson & Higham, SIAM
    J. Sci. Comput. 40(2), 2018): each correction shrinks the error by about
    that factor. The benchmark's M have kappa_1 about 13 (static-cd3d) and
    1.7e5 (adaptive-reservoir), so one or two corrections per solve
    suffice; an M with kappa_1 beyond about 1e7 to 1e8, or one whose diagonal
    pivoting grew, exhausts the corrections and takes the fallback.

    The fallback refactors M once in double with ``COLAMD`` and partial
    pivoting, and its result is final. It runs when the single-precision
    factor raises, a refined solve does not converge within
    ``_MAX_CORRECTIONS``, the estimate is not finite, or the backward error
    eta of the estimate's solve exceeds 10*n*eps. A solve from an LU whose
    factors did not grow has a backward error of at most about 3*n*eps
    (Higham 2002, Thm. 9.4), so 10*n*eps leaves room for modest growth
    only. Only the factors' solves are read, never L or U. An empty row or
    column, an exactly singular factor, or a non-finite estimate gives
    ``(False, 0.0)``. A debug record on the ``saiprec`` logger names the LU
    that decided, its corrections and eta.
    """
    if M.nrows != M.ncols:
        raise ValueError("square matrix required")
    # an empty column or row is exactly singular; SuperLU makes illegal BLAS
    # calls on some such matrices and can crash the process afterwards
    if M.nnz == 0 or not (M.column_nnz().all() and np.bincount(M.row_idx, minlength=M.nrows).all()):
        return False, 0.0
    S, norm = M.to_scipy(), M.one_norm()
    refused = ""
    for refined in (True, False):  # the double LU only when the single one is not to be trusted
        try:
            inverse_norm, eta, corrections = _inverse_one_norm(S, norm, refined)
        except RuntimeError as err:
            inverse_norm, eta, corrections, why = np.nan, np.nan, 0, str(err)
        else:
            why = f"estimate {inverse_norm:.3g}, eta {eta:.3g}"
        if np.isfinite(inverse_norm) and eta <= 10.0 * M.nrows * _EPS:
            break
        if refined:
            refused = f" (the single-precision LU was refused: {why})"
    _LOG.debug("check_nonsingular: the %s LU decided%s; %d corrections, eta %.3g",
               "single-precision symmetric-mode" if refined else "double COLAMD", refused,
               corrections, eta)
    if not np.isfinite(inverse_norm):
        return False, 0.0
    rcond = 1.0 / (norm * inverse_norm)
    return bool(rcond > M.nrows * _EPS), rcond


def quality_report(A: SparseMatrix, P: Preconditioner, epsilon: float,
                   reference: Preconditioner | None = None) -> QualityReport:
    """Recompute the quality metrics of a build from the assembled M.

    ``reference`` supplies the unfiltered preconditioner when P is a dropped
    or filtered one, so that both residual-nnz bounds p and p_d are reported.
    """
    _checked_epsilon(epsilon)
    _check_shape(A, P.M)
    if reference is not None:
        _check_shape(A, reference.M, "the reference M")
    operand = A.transpose() if P.side == "left" else A
    M = P.M.transpose() if P.side == "left" else P.M
    res_norm, _, per_column, p_d = _column_pass(_residual_matrix(operand, M))
    p = p_d
    if reference is not None:
        M_ref = reference.M.transpose() if reference.side == "left" else reference.M
        p = _column_pass(_residual_matrix(operand, M_ref))[3]
    nonsingular, rcond = check_nonsingular(P.M)
    return QualityReport(
        r_max=P.r_max,
        coln=P.coln(epsilon),
        spar=P.spar,
        am_minus_i_one_norm=res_norm,
        p=p,
        p_d=p_d,
        nonsingular=nonsingular,
        rcond=rcond,
        per_column_residuals=per_column,
    )


def _dense_inverse(A: SparseMatrix):
    """``(inv, ||inv||_1)`` of the dense A, or None when A is singular."""
    try:
        inv = np.linalg.inv(A.to_dense())
    except np.linalg.LinAlgError:
        return None
    return inv, np.abs(inv).sum(axis=0).max()


def verify_drop_guarantees(A: SparseMatrix, M: SparseMatrix, M_d: SparseMatrix,
                    epsilon: float) -> list[GuaranteeCheck]:
    """Numerically evaluate the dropping guarantees on a concrete (A, M, M_d).

    Each check reports the hypothesis and, when it holds, whether the
    conclusion holds; a failed hypothesis yields "not applicable", never a
    failed check. Each of A M - I, A M_d - I and F = M - M_d is reduced in
    one column pass, and M_d is checked by ``check_nonsingular`` at most once.
    """
    _checked_epsilon(epsilon)
    _check_shape(A, M)
    _check_shape(A, M_d, "M_d")
    a_norm = A.one_norm()
    f_norm, f_cols_1, _, _ = _column_pass((M.to_scipy() - M_d.to_scipy()).tocsc())
    res_norm, col_res_1, col_res_2, p = _column_pass(_residual_matrix(A, M))
    rd_norm, rd_cols_1, rd_cols_2, p_d = _column_pass(_residual_matrix(A, M_d))

    # nonsingularity of M - F when ||AM - I|| <= eps < 1 and ||F|| < (1-eps)/||A||;
    # the residual doubling bound: ||F|| <= min(eps, 1-eps)/||A|| keeps
    # ||A M_d - I|| <= min(1, 2 eps) and M_d nonsingular
    hyp1 = res_norm <= epsilon < 1.0 and f_norm < (1.0 - epsilon) / a_norm
    bound2 = min(epsilon, 1.0 - epsilon) / a_norm
    hyp2 = res_norm <= epsilon < 1.0 and f_norm <= bound2
    nonsing, rcond = check_nonsingular(M_d) if hyp1 or hyp2 else (None, None)
    passed1, passed2 = None, None
    details1 = {"am_minus_i_1": res_norm, "f_1": f_norm, "bound": (1.0 - epsilon) / a_norm}
    if hyp1:
        passed1, details1["rcond"] = nonsing, rcond
    details2 = {"f_1": f_norm, "bound": bound2}
    if hyp2:
        passed2 = bool(rd_norm <= min(1.0, 2.0 * epsilon) + 1e-12) and nonsing
        details2["amd_minus_i_1"] = rd_norm
        details2["conclusion_bound"] = min(1.0, 2.0 * epsilon)
    checks = [GuaranteeCheck("dropped_inverse_nonsingular", hyp1, passed1, details1),
              GuaranteeCheck("residual_doubling_matrix_norm", hyp2, passed2, details2)]

    # columnwise version in the 1-norm: residual columns <= eps < 0.5 and
    # ||f_k||_1 <= eps/||A||_1 imply dropped residual columns <= 2 eps; the
    # mixed-norm version: the same with 2-norm residual columns
    f_small = epsilon < 0.5 and np.all(f_cols_1 <= epsilon / a_norm)
    for name, cols, dropped, key in (
        ("residual_doubling_columns_1norm", col_res_1, rd_cols_1, "col_res_1"),
        ("residual_doubling_columns_mixed", col_res_2, rd_cols_2, "col_res_2"),
    ):
        hyp = bool(np.all(cols <= epsilon) and f_small)
        details = {f"max_{key}": float(np.max(cols, initial=0.0))}
        if hyp:
            details[f"max_dropped_{key}"] = float(np.max(dropped))
        passed = bool(np.all(dropped <= 2.0 * epsilon + 1e-12)) if hyp else None
        checks.append(GuaranteeCheck(name, hyp, passed, details))

    # residual-sparsity bounds: with p, p_d the max column nnz of the residual
    # matrices, ||AM-I||_1 <= sqrt(p) eps and ||AM_d-I||_1 <= 2 sqrt(p_d) eps;
    # when those bounds are < 1 the factors are nonsingular with relative
    # inverse-error bounds of the same size
    hyp_gh = bool(np.all(col_res_2 <= epsilon) and np.all(rd_cols_2 <= 2.0 * epsilon + 1e-12))
    details_gh = {"p": p, "p_d": p_d}
    ok = None
    if hyp_gh:
        bound, bound_d = np.sqrt(p) * epsilon, 2.0 * np.sqrt(p_d) * epsilon
        ok = res_norm <= bound + 1e-12 and rd_norm <= bound_d + 1e-12
        details_gh["norm_bounds_ok"] = bool(ok)
        small = A.nrows <= _DENSE_INVERSE_LIMIT and (bound < 1.0 or bound_d < 1.0)
        inverse = _dense_inverse(A) if small else None
        for key, X, b in (("m_relative_error_1", M, bound), ("md_relative_error_1", M_d, bound_d)):
            if inverse is not None and b < 1.0:
                err = np.abs(X.to_dense() - inverse[0]).sum(axis=0).max() / inverse[1]
                ok = ok and err <= b + 1e-12
                details_gh[key] = float(err)
        ok = bool(ok)
    checks.append(GuaranteeCheck("residual_sparsity_bounds", hyp_gh, ok, details_gh))
    return checks

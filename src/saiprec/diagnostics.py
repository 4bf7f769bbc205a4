"""Quality metrics for (A, M) pairs and numerical verification of the
dropping guarantees (hypotheses and conclusions) on concrete matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .core import SparseMatrix
from .psai import Preconditioner

_EPS = np.finfo(np.float64).eps
_STRUCT_TOL = 1e-14  # entries at or below this count as structural zeros
_DENSE_INVERSE_LIMIT = 400  # error-norm checks use a dense inverse up to here
# check_nonsingular's LUs: SuperLU's symmetric mode, then partial pivoting
_FACTORIZATIONS = (dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                        options={"SymmetricMode": True}), dict(permc_spec="COLAMD"))


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


def _inverse_one_norm(S, norm: float, **factor):
    """``(est, eta)`` from one LU of M = S with the ``splu`` options ``factor``:
    the Hager-Higham estimate (Higham & Tisseur, 2000) of ||M^-1||_1 from the
    LU's solves, and the backward error eta = ||M w - v||_1 / (||M||_1 ||w||_1
    + ||v||_1), with ||M||_1 = ``norm``, of the solve w = M^-1 v it rests on.
    ``onenormest``'s random column is seeded and the caller's numpy state put
    back. Raises RuntimeError when SuperLU finds M exactly singular."""
    lu = splu(S, **factor)
    inverse = LinearOperator(S.shape, matvec=lu.solve, matmat=lu.solve, dtype=np.float64,
                             rmatvec=lambda x: lu.solve(x, trans="T"),
                             rmatmat=lambda X: lu.solve(X, trans="T"))
    state = np.random.get_state()
    np.random.seed(0)
    try:
        est, v, w = onenormest(inverse, compute_v=True, compute_w=True)
    finally:
        np.random.set_state(state)
    return float(est), np.abs(S @ w - v).sum() / (norm * np.abs(w).sum() + np.abs(v).sum())


def check_nonsingular(M: SparseMatrix):
    """``(nonsingular, rcond)`` of a square M from its sparse LU.

    M is called numerically nonsingular iff rcond = 1 / (||M||_1 *
    est ||M^-1||_1) > n*eps, with ||M^-1||_1 estimated from the LU's solves;
    the estimate is a lower bound (up to rounding), so rcond is at least the
    true 1-norm reciprocal condition number. The verdict does not depend on
    the LU's pivot order, so M is factored for speed in SuperLU's symmetric
    mode (``MMD_AT_PLUS_A``, diagonal pivots down to 0.01 of their column).
    That pivoting has no growth bound: if it raises, the estimate is not
    finite, or the backward error of the estimate's solve exceeds 10*n*eps,
    M is refactored once with ``COLAMD`` and partial pivoting, and that
    result is final. A solve from an LU whose factors did not grow has a
    backward error of at most about 3*n*eps (Higham 2002, Thm. 9.4), so
    10*n*eps leaves room for modest growth only. Only the factor's solves
    are read, never L or U. An empty row or column, an exactly singular
    factor, or a non-finite estimate gives ``(False, 0.0)``.
    """
    if M.nrows != M.ncols:
        raise ValueError("square matrix required")
    # an empty column or row is exactly singular; SuperLU makes illegal BLAS
    # calls on some such matrices and can crash the process afterwards
    if M.nnz == 0 or not (M.column_nnz().all() and np.bincount(M.row_idx, minlength=M.nrows).all()):
        return False, 0.0
    S, norm = M.to_scipy(), M.one_norm()
    for factor in _FACTORIZATIONS:  # the second only when the first is not to be trusted
        try:
            inverse_norm, eta = _inverse_one_norm(S, norm, **factor)
        except RuntimeError:
            inverse_norm, eta = np.nan, np.nan
        if np.isfinite(inverse_norm) and eta <= 10.0 * M.nrows * _EPS:
            break
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

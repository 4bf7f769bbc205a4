"""Quality metrics for (A, M) pairs and numerical verification of the
dropping guarantees (hypotheses and conclusions) on concrete matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import SparseMatrix
from .psai import Preconditioner

_EPS = np.finfo(np.float64).eps
_STRUCT_TOL = 1e-14  # entries at or below this count as structural zeros
_DENSE_INVERSE_LIMIT = 400  # error-norm checks use a dense inverse up to here


@dataclass
class QualityReport:
    r_max: float
    coln: int
    spar: float
    am_minus_i_one_norm: float
    p: int
    p_d: int
    nonsingular: bool
    pivot_min: float
    per_column_residuals: np.ndarray


@dataclass
class GuaranteeCheck:
    name: str
    applicable: bool
    passed: bool | None
    details: dict = field(default_factory=dict)


def _residual_matrix(A: SparseMatrix, M: SparseMatrix):
    return (A.to_scipy() @ M.to_scipy()).tocsc() - sp.identity(A.nrows, format="csc")


def _column_norms(R) -> np.ndarray:
    """2-norm of every column of the sparse matrix R."""
    return np.sqrt(np.asarray(R.power(2).sum(axis=0)).ravel())


def _one_norm(S) -> float:
    if S.nnz == 0:
        return 0.0
    return float(np.max(np.abs(S).sum(axis=0)))


def _max_col_nnz(S, tol=_STRUCT_TOL) -> int:
    S = S.tocsc()
    counts = np.zeros(S.shape[1], dtype=np.int64)
    mask = np.abs(S.data) > tol
    cols = np.repeat(np.arange(S.shape[1]), np.diff(S.indptr))
    np.add.at(counts, cols[mask], 1)
    return int(counts.max()) if counts.size else 0


def check_nonsingular(M: SparseMatrix):
    """LU pivot test: numerically singular iff min |pivot| <= n*eps*||M||_1."""
    if M.nrows != M.ncols:
        raise ValueError("square matrix required")
    if M.nnz == 0:
        return False, 0.0
    try:
        lu = splu(M.to_scipy().tocsc())
    except RuntimeError:
        return False, 0.0
    pivot_min = float(np.min(np.abs(lu.U.diagonal())))
    if not np.isfinite(pivot_min):
        return False, 0.0
    threshold = M.nrows * _EPS * M.one_norm()
    return bool(pivot_min > threshold), pivot_min


def quality_report(A: SparseMatrix, P: Preconditioner, epsilon: float,
                   reference: Preconditioner | None = None) -> QualityReport:
    """Recompute the quality metrics of a build from the assembled M.

    ``reference`` supplies the unfiltered preconditioner when P is a dropped
    or filtered one, so that both residual-nnz bounds p and p_d are reported.
    """
    operand = A.transpose() if P.side == "left" else A
    M = P.M.transpose() if P.side == "left" else P.M
    R = _residual_matrix(operand, M)
    dense_cols = _column_norms(R)
    p_d = _max_col_nnz(R)
    if reference is not None:
        M_ref = reference.M.transpose() if reference.side == "left" else reference.M
        p = _max_col_nnz(_residual_matrix(operand, M_ref))
    else:
        p = p_d
    nonsingular, pivot_min = check_nonsingular(P.M)
    return QualityReport(
        r_max=P.r_max,
        coln=P.coln(epsilon),
        spar=P.spar,
        am_minus_i_one_norm=_one_norm(R),
        p=p,
        p_d=p_d,
        nonsingular=nonsingular,
        pivot_min=pivot_min,
        per_column_residuals=dense_cols,
    )


def verify_drop_guarantees(A: SparseMatrix, M: SparseMatrix, M_d: SparseMatrix,
                    epsilon: float) -> list[GuaranteeCheck]:
    """Numerically evaluate the dropping guarantees on a concrete (A, M, M_d).

    Each check reports the hypothesis and, when it holds, whether the
    conclusion holds; a failed hypothesis yields "not applicable", never a
    failed check.
    """
    checks: list[GuaranteeCheck] = []
    F = (M.to_scipy() - M_d.to_scipy()).tocsc()
    a_norm = A.one_norm()
    f_norm = _one_norm(F)
    R = _residual_matrix(A, M)
    R_d = _residual_matrix(A, M_d)
    res_norm = _one_norm(R)

    # nonsingularity of M - F when ||AM - I|| <= eps < 1 and ||F|| < (1-eps)/||A||
    hyp1 = res_norm <= epsilon < 1.0 and f_norm < (1.0 - epsilon) / a_norm
    passed1 = None
    details1 = {"am_minus_i_1": res_norm, "f_1": f_norm, "bound": (1.0 - epsilon) / a_norm}
    if hyp1:
        passed1, details1["pivot_min"] = check_nonsingular(M_d)
    checks.append(GuaranteeCheck("dropped_inverse_nonsingular", hyp1, passed1, details1))

    # residual doubling bound: ||F|| <= min(eps, 1-eps)/||A|| keeps
    # ||A M_d - I|| <= min(1, 2 eps) and M_d nonsingular
    bound2 = min(epsilon, 1.0 - epsilon) / a_norm
    hyp2 = res_norm <= epsilon < 1.0 and f_norm <= bound2
    passed2 = None
    details2 = {"f_1": f_norm, "bound": bound2}
    if hyp2:
        rd_norm = _one_norm(R_d)
        nonsing, _ = check_nonsingular(M_d)
        passed2 = bool(rd_norm <= min(1.0, 2.0 * epsilon) + 1e-12) and nonsing
        details2["amd_minus_i_1"] = rd_norm
        details2["conclusion_bound"] = min(1.0, 2.0 * epsilon)
    checks.append(GuaranteeCheck("residual_doubling_matrix_norm", hyp2, passed2, details2))

    # columnwise version in the 1-norm: residual columns <= eps < 0.5 and
    # ||f_k||_1 <= eps/||A||_1 imply dropped residual columns <= 2 eps
    col_res_1 = np.asarray(np.abs(R).sum(axis=0)).ravel()
    f_cols_1 = np.asarray(np.abs(F).sum(axis=0)).ravel()
    hyp3 = bool(np.all(col_res_1 <= epsilon) and epsilon < 0.5 and np.all(f_cols_1 <= epsilon / a_norm))
    passed3 = None
    details3 = {"max_col_res_1": float(col_res_1.max()) if col_res_1.size else 0.0}
    if hyp3:
        rd_cols_1 = np.asarray(np.abs(R_d).sum(axis=0)).ravel()
        passed3 = bool(np.all(rd_cols_1 <= 2.0 * epsilon + 1e-12))
        details3["max_dropped_col_res_1"] = float(rd_cols_1.max())
    checks.append(GuaranteeCheck("residual_doubling_columns_1norm", hyp3, passed3, details3))

    # mixed-norm version: 2-norm residual columns <= eps < 0.5 and 1-norm
    # ||f_k||_1 <= eps/||A||_1 imply 2-norm dropped residual columns <= 2 eps
    col_res_2 = _column_norms(R)
    rd_cols_2 = _column_norms(R_d)
    hyp5 = bool(np.all(col_res_2 <= epsilon) and epsilon < 0.5 and np.all(f_cols_1 <= epsilon / a_norm))
    passed5 = None
    details5 = {"max_col_res_2": float(col_res_2.max()) if col_res_2.size else 0.0}
    if hyp5:
        passed5 = bool(np.all(rd_cols_2 <= 2.0 * epsilon + 1e-12))
        details5["max_dropped_col_res_2"] = float(rd_cols_2.max())
    checks.append(GuaranteeCheck("residual_doubling_columns_mixed", hyp5, passed5, details5))

    # residual-sparsity bounds: with p, p_d the max column nnz of the residual
    # matrices, ||AM-I||_1 <= sqrt(p) eps and ||AM_d-I||_1 <= 2 sqrt(p_d) eps;
    # when those bounds are < 1 the factors are nonsingular with relative
    # inverse-error bounds of the same size
    hyp_gh = bool(np.all(col_res_2 <= epsilon) and np.all(rd_cols_2 <= 2.0 * epsilon + 1e-12))
    passed_gh = None
    p = _max_col_nnz(R)
    p_d = _max_col_nnz(R_d)
    details_gh = {"p": p, "p_d": p_d}
    if hyp_gh:
        ok = _one_norm(R) <= np.sqrt(p) * epsilon + 1e-12
        ok = ok and _one_norm(R_d) <= 2.0 * np.sqrt(p_d) * epsilon + 1e-12
        details_gh["norm_bounds_ok"] = bool(ok)
        if A.nrows <= _DENSE_INVERSE_LIMIT:
            if np.sqrt(p) * epsilon < 1.0 or 2.0 * np.sqrt(p_d) * epsilon < 1.0:
                inv_norm = None
                try:
                    inv = np.linalg.inv(A.to_dense())
                    inv_norm = np.abs(inv).sum(axis=0).max()
                except np.linalg.LinAlgError:
                    pass
                if inv_norm is not None:
                    if np.sqrt(p) * epsilon < 1.0:
                        err = np.abs(M.to_dense() - inv).sum(axis=0).max() / inv_norm
                        ok = ok and err <= np.sqrt(p) * epsilon + 1e-12
                        details_gh["m_relative_error_1"] = float(err)
                    if 2.0 * np.sqrt(p_d) * epsilon < 1.0:
                        err_d = np.abs(M_d.to_dense() - inv).sum(axis=0).max() / inv_norm
                        ok = ok and err_d <= 2.0 * np.sqrt(p_d) * epsilon + 1e-12
                        details_gh["md_relative_error_1"] = float(err_d)
        passed_gh = bool(ok)
    checks.append(GuaranteeCheck("residual_sparsity_bounds", hyp_gh, passed_gh, details_gh))
    return checks

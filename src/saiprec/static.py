"""Static sparse-approximate-inverse construction on prescribed patterns.

The envelope patterns are the structures of (I+A)^k, (I+|A|+|A^T|)^k A^T and
(A^T A)^k A^T. Each column solves its least-squares problem once on the fixed
pattern; postfiltration afterwards drops entries below
max(eps_k, floor) / (nnz(m_k) * ||A||_1) per column, where eps_k is that
column's achieved residual norm.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._parallel import map_columns
from .core import SparseMatrix, assemble_columns
from .diagnostics import _column_norms, _residual_matrix
from .lsq import ColumnLeastSquares
from .psai import ColumnBuildRecord, Preconditioner

PATTERN_KINDS = ("iplusa", "abs", "normal")

DEFAULT_NNZ_CAP = 50_000_000


class PatternSizeError(RuntimeError):
    """Predicted pattern density exceeds the configured cap."""


@dataclass(frozen=True)
class PatternMatrix:
    """Boolean column structure for all n columns (CSC without values)."""

    nrows: int
    ncols: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    kind: str

    def __post_init__(self):
        if np.any(np.diff(self.col_ptr) < 1):
            raise ValueError("every pattern column must be non-empty")

    @property
    def nnz(self) -> int:
        return int(self.row_idx.size)

    def column(self, k) -> np.ndarray:
        return self.row_idx[self.col_ptr[k] : self.col_ptr[k + 1]]

    @classmethod
    def from_scipy(cls, mat, kind: str) -> "PatternMatrix":
        csc = mat.tocsc()
        csc.sum_duplicates()
        csc.sort_indices()
        return cls(csc.shape[0], csc.shape[1], csc.indptr.astype(np.int64),
                   csc.indices.astype(np.int64), kind)


def _capped_matmul(L, R, cap):
    out = L @ R
    if out.nnz > cap:
        raise PatternSizeError(f"pattern nnz {out.nnz} exceeds cap {cap}")
    out.data[:] = 1.0  # structure only; keep path counts from growing
    return out


def make_pattern(A: SparseMatrix, kind: str, k: int, cap: int = DEFAULT_NNZ_CAP) -> PatternMatrix:
    """Boolean structure of the named symbolic power product.

    kind "iplusa":  (I + A)^k
    kind "abs":     (I + |A| + |A^T|)^k A^T
    kind "normal":  (A^T A)^k A^T
    """
    if kind not in PATTERN_KINDS:
        raise ValueError(f"kind must be one of {PATTERN_KINDS}")
    if k < 1:
        raise ValueError("power must be at least 1")
    S = A.to_scipy().copy()
    S.data[:] = 1.0
    eye = sp.identity(A.nrows, format="csc")
    if kind == "iplusa":
        base = (eye + S).tocsc()
        base.data[:] = 1.0
        out = base
        for _ in range(k - 1):
            out = _capped_matmul(out, base, cap)
    elif kind == "abs":
        base = (eye + S + S.T).tocsc()
        base.data[:] = 1.0
        out = S.T.tocsc()
        out.data[:] = 1.0
        for _ in range(k):
            out = _capped_matmul(base, out, cap)
    else:
        base = (S.T @ S).tocsc()
        base.data[:] = 1.0
        if base.nnz > cap:
            raise PatternSizeError(f"pattern nnz {base.nnz} exceeds cap {cap}")
        out = S.T.tocsc()
        out.data[:] = 1.0
        for _ in range(k):
            out = _capped_matmul(base, out, cap)
    return PatternMatrix.from_scipy(out, kind=f"{kind}^{k}")


def _static_column(k, A, col_ptr, row_idx):
    state = ColumnLeastSquares(A, k, row_idx[col_ptr[k] : col_ptr[k + 1]])
    vec = state.solution_vector()
    rec = ColumnBuildRecord(
        k=k,
        loops_used=0,
        pre_drop_residual=state.residual_norm,
        post_drop_residual=state.residual_norm,
        nnz_final=vec.nnz,
        met_accuracy=None,
        rank_flag=state.rank_flag,
    )
    return vec, rec


def static_build(A: SparseMatrix, pattern: PatternMatrix, threads: int = 1) -> Preconditioner:
    """Solve min ||A(:, S^k) m - e_k||_2 once per column on the fixed pattern."""
    if 0 in A.shape:
        raise ValueError(f"cannot build for an empty {A.nrows}x{A.ncols} matrix")
    if (pattern.nrows, pattern.ncols) != A.shape:
        raise ValueError("pattern dimensions do not match the matrix")
    start = time.perf_counter()
    a_norm = A.one_norm()
    n = A.ncols

    results = map_columns(
        _static_column, (A, pattern.col_ptr, pattern.row_idx), n, threads
    )
    columns = [vec for vec, _ in results]
    records = [rec for _, rec in results]

    return Preconditioner(
        M=assemble_columns(columns, nrows=n),
        records=records,
        params=None,
        a_one_norm=a_norm,
        a_nnz=A.nnz,
        build_time=time.perf_counter() - start,
        origin=f"static:{pattern.kind}",
    )


def postfilter(A: SparseMatrix, P: Preconditioner, floor: float = 0.1) -> Preconditioner:
    """Sparsify a statically built M column by column.

    Column k drops entries with |m_jk| <= max(eps_k, floor) / (nnz(m_k) * ||A||_1)
    where eps_k is the column's build residual and nnz(m_k) its pre-drop count.
    Post-drop residuals are recomputed; the result is marked filtered.
    """
    start = time.perf_counter()
    M = P.M
    counts = M.column_nnz()
    eps = np.maximum([rec.pre_drop_residual for rec in P.records], floor)
    tol = eps / (np.maximum(counts, 1) * P.a_one_norm)
    magnitude = np.abs(M.values)
    keep = magnitude > np.repeat(tol, counts)
    kept_before = np.concatenate(([0], np.cumsum(keep)))[M.col_ptr]
    guard = (counts > 0) & (np.diff(kept_before) == 0)
    for k in np.flatnonzero(guard):
        lo, hi = M.col_ptr[k], M.col_ptr[k + 1]
        keep[lo + np.argmax(magnitude[lo:hi])] = True
    col_ptr = np.concatenate(([0], np.cumsum(keep)))[M.col_ptr]
    M_d = SparseMatrix(M.nrows, M.ncols, col_ptr, M.row_idx[keep], M.values[keep])
    residuals = _column_norms(_residual_matrix(A, M_d))
    records = [
        dataclasses.replace(
            rec,
            post_drop_residual=float(residuals[k]),
            nnz_final=int(col_ptr[k + 1] - col_ptr[k]),
            guard_flag=bool(guard[k]),
            tol_min=float(tol[k]),
            tol_max=float(tol[k]),
        )
        for k, rec in enumerate(P.records)
    ]
    return Preconditioner(
        M=M_d,
        records=records,
        params=P.params,
        a_one_norm=P.a_one_norm,
        a_nnz=P.a_nnz,
        build_time=time.perf_counter() - start,
        origin=P.origin,
        filtered=True,
    )

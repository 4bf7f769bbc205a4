"""Static sparse-approximate-inverse construction on prescribed patterns.

The envelope patterns are the structures of (I+A)^k, (I+|A|+|A^T|)^k A^T and
(A^T A)^k A^T. Each column solves its least-squares problem once on the fixed
pattern, through ``psai._build_columns``, which runs the columns a block at a
time; postfiltration afterwards drops entries below
max(eps_k, floor) / (nnz(m_k) * ||A||_1) per column of a right-side M, where
eps_k is that column's achieved residual norm.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import scipy.sparse as sp

from .core import SparseMatrix
from .diagnostics import _column_norms, _residual_matrix
from .lsq import ColumnLeastSquares
from .psai import Preconditioner, _build_columns, _column_result

PATTERN_KINDS = ("iplusa", "abs", "normal")

DEFAULT_NNZ_CAP = 50_000_000


class PatternSizeError(RuntimeError):
    """Predicted pattern density exceeds the configured cap."""


def _capped_matmul(L, R, cap):
    out = L @ R
    if out.nnz > cap:
        raise PatternSizeError(f"pattern nnz {out.nnz} exceeds cap {cap}")
    out.data[:] = 1.0  # structure only; keep path counts from growing
    return out


def make_pattern(A: SparseMatrix, kind: str, k: int, cap: int = DEFAULT_NNZ_CAP) -> SparseMatrix:
    """Structure of the named symbolic power product, as an all-ones matrix.

    kind "iplusa":  (I + A)^k
    kind "abs":     (I + |A| + |A^T|)^k A^T
    kind "normal":  (A^T A)^k A^T

    A zero row j of A leaves column j of the "abs" and "normal" patterns
    empty, which :func:`static_build` rejects.
    """
    if kind not in PATTERN_KINDS:
        raise ValueError(f"kind must be one of {PATTERN_KINDS}")
    if k < 1:
        raise ValueError("power must be at least 1")
    S = A.to_scipy().copy()
    S.data[:] = 1.0
    eye = sp.identity(A.nrows, format="csc")
    # the pattern is base^steps @ out; every product is capped and kept all-ones
    if kind == "iplusa":
        base = out = (eye + S).tocsc()
        steps = k - 1
    elif kind == "abs":
        base, out, steps = (eye + S + S.T).tocsc(), S.T, k
    else:
        base, out, steps = _capped_matmul(S.T, S, cap).tocsc(), S.T, k
    base.data[:] = 1.0
    for _ in range(steps):
        out = _capped_matmul(base, out, cap)
    return SparseMatrix.from_scipy(out)


def _static_column(k, A, col_ptr, row_idx):
    state = ColumnLeastSquares(A, k, row_idx[col_ptr[k] : col_ptr[k + 1]])
    return _column_result(
        state, k, loops_used=0, pre_drop_residual=state.residual_norm, met_accuracy=None
    )


def _static_block(ks, A, a_one_norm, col_ptr, row_idx):
    return [_static_column(k, A, col_ptr, row_idx) for k in ks]


def static_build(A: SparseMatrix, pattern: SparseMatrix, threads: int = 1) -> Preconditioner:
    """Solve min ||A(:, S^k) m - e_k||_2 once per column on the fixed pattern.

    S^k is the row set of column k of ``pattern`` (its values are ignored);
    every pattern column must be non-empty.
    """
    if pattern.shape != A.shape:
        raise ValueError("pattern dimensions do not match the matrix")
    empty = np.flatnonzero(pattern.column_nnz() == 0)
    if empty.size:
        raise ValueError(f"pattern column {empty[0]} is empty; every column must be non-empty")
    return _build_columns(A, _static_block, (pattern.col_ptr, pattern.row_idx), None, threads)


def _checked_floor(floor) -> float:
    """The postfilter floor as a float; it must be finite and nonnegative."""
    floor = float(floor)
    if not 0.0 <= floor < np.inf:
        raise ValueError(f"floor must be finite and nonnegative, got {floor!r}")
    return floor


def postfilter(A: SparseMatrix, P: Preconditioner, floor: float = 0.1) -> Preconditioner:
    """Sparsify a statically built M column by column.

    Column k drops entries with |m_jk| <= max(eps_k, floor) / (nnz(m_k) * ||A||_1)
    where eps_k is the column's build residual and nnz(m_k) its pre-drop count.
    Post-drop residuals are recomputed; the result is marked filtered.
    """
    if P.side != "right":
        raise ValueError("postfilter needs a right-side preconditioner (A M ~ I)")
    floor = _checked_floor(floor)
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
        filtered=True,
    )

"""Static sparse-approximate-inverse construction on prescribed patterns.

The envelope patterns are the structures of (I+A)^k, (I+|A|+|A^T|)^k A^T and
(A^T A)^k A^T. A static build is the adaptive builders' kernel,
``psai._grow_block``, started from the pattern's columns with no growth and
no drop: each column solves its least-squares problem once on its fixed
pattern, and the blocks A(R, S) of a block of columns come from one
``core._gather_blocks`` call. Postfiltration afterwards drops entries at or
below max(eps_k, floor) / (nnz(m_k) * ||A||_1) per column of a right-side M,
where eps_k is that column's achieved residual norm, by the rule and guard
of the adaptive builder (``psai._drop_mask``).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from .core import SparseMatrix, _as_index, _as_real, _kept_entries
from .diagnostics import _check_shape, _column_norms, _residual_matrix
from .psai import Preconditioner, _build_columns, _drop_mask, _grow_block

PATTERN_KINDS = ("iplusa", "abs", "normal")

_NNZ_CAP = 50_000_000  # the most entries a pattern product may hold


class PatternSizeError(RuntimeError):
    """A pattern product holds more entries than the cap allows."""


def _capped_matmul(L, R):
    out = L @ R
    if out.nnz > _NNZ_CAP:
        raise PatternSizeError(f"pattern nnz {out.nnz} exceeds cap {_NNZ_CAP}")
    out.data[:] = 1.0  # structure only; keep path counts from growing
    return out


def make_pattern(A: SparseMatrix, kind: str, k: int) -> SparseMatrix:
    """Structure of the named symbolic power product, as an all-ones matrix
    that stores no values: its values array is one read-only broadcast 1.0.

    kind "iplusa":  (I + A)^k
    kind "abs":     (I + |A| + |A^T|)^k A^T
    kind "normal":  (A^T A)^k A^T

    A zero row j of A leaves column j of the "abs" and "normal" patterns
    empty, which :func:`static_build` rejects.
    """
    if A.nrows != A.ncols:
        raise ValueError("square matrix required")
    if kind not in PATTERN_KINDS:
        raise ValueError(f"kind must be one of {PATTERN_KINDS}")
    if _as_index(k, "k") < 1:
        raise ValueError("power must be at least 1")
    S = sp.csc_matrix((np.ones(A.nnz), A.row_idx, A.col_ptr), shape=A.shape)
    eye = sp.identity(A.nrows, format="csc")
    # the pattern is base^steps @ out; every product is capped and kept all-ones
    if kind == "iplusa":
        base = out = (eye + S).tocsc()
        steps = k - 1
    elif kind == "abs":
        base, out, steps = (eye + S + S.T).tocsc(), S.T, k
    else:
        base, out, steps = _capped_matmul(S.T, S).tocsc(), S.T, k
    base.data[:] = 1.0
    for _ in range(steps):
        out = _capped_matmul(base, out)
    out.sum_duplicates()  # CSC, as every product above: sorts each column's rows
    return SparseMatrix._adopt(out.shape[0], out.shape[1], out.indptr, out.indices,
                               np.broadcast_to(1.0, out.nnz))


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
    return _build_columns(A, _grow_block, (None, pattern.col_ptr, pattern.row_idx), None, threads)


def _checked_floor(floor) -> float:
    """The postfilter floor as a float; it must be a finite, nonnegative real."""
    floor = _as_real(floor, "floor")
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
    _check_shape(A, P.M)
    start = time.perf_counter()
    M = P.M
    counts = M.column_nnz()
    eps = np.maximum(P.records.pre_drop_residual, floor)
    with np.errstate(divide="ignore"):  # ||A||_1 = 0: every tolerance is inf
        tol = eps / (np.maximum(counts, 1) * P.a_one_norm)
    keep, guard = _drop_mask(M.values, counts, tol)
    M_d = _kept_entries(M.nrows, M.col_ptr, M.row_idx, M.values, keep)
    records = P.records.copy()
    records.post_drop_residual = _column_norms(_residual_matrix(A, M_d))
    records.nnz_final = M_d.column_nnz()
    records.guard_flag = guard
    records.tol_min = records.tol_max = tol
    return Preconditioner(
        M=M_d,
        records=records,
        params=P.params,
        a_one_norm=P.a_one_norm,
        a_nnz=P.a_nnz,
        build_time=time.perf_counter() - start,
        filtered=True,
    )

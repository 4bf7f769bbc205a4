"""Adaptive sparse-approximate-inverse construction.

Two column builders share one loop: the pattern of column k grows by the
numerical nonzeros of the powers A^l e_k, kept as sparse vectors, and each
growth step ends with one QR solve of the column's least-squares problem. A
column stops early (stalled) once A maps its reached index set into itself, as
no index can be new again. The plain builder never drops; the dropping builder
removes small entries after each solve (the block is sliced, not factored)
by a fixed tolerance or the adaptive criterion eps / (nnz(m_k) * ||A||_1), which
keeps the dropped mass small enough that a column meeting the accuracy target
eps still satisfies ||A m_d - e_k||_2 <= 2 eps after dropping.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from ._parallel import map_columns
from .core import SparseMatrix, _column_entries, assemble_columns
from .lsq import ColumnLeastSquares

DROP_MODES = ("none", "adaptive", "fixed")
SIDES = ("right", "left")


@dataclass(frozen=True)
class SaiParams:
    """Knobs for the adaptive builders.

    epsilon: per-column residual target in (0, 1).
    l_max: maximum number of outer pattern-growth loops.
    drop_mode: "none" (no dropping), "adaptive" (the eps/(nnz*||A||_1)
        criterion) or "fixed" (absolute tolerance ``tol``).
    drop_scale: multiplier on the adaptive criterion (sweep studies); 0 means
        no dropping at all.
    side: "right" builds M with A M ~ I; "left" builds M with M A ~ I by
        running the right-side construction on the transpose.
    """

    epsilon: float = 0.3
    l_max: int = 10
    drop_mode: str = "adaptive"
    tol: float | None = None
    drop_scale: float = 1.0
    side: str = "right"

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.epsilon >= 0.5:
            warnings.warn(
                "epsilon >= 0.5: the dropping theory assumes epsilon < 0.5",
                stacklevel=2,
            )
        if self.l_max < 1:
            raise ValueError("l_max must be at least 1")
        if self.drop_mode not in DROP_MODES:
            raise ValueError(f"drop_mode must be one of {DROP_MODES}")
        if self.drop_mode == "fixed":
            if self.tol is None or self.tol <= 0.0:
                raise ValueError("fixed drop mode needs tol > 0")
        if self.drop_scale < 0.0:
            raise ValueError("drop_scale must be nonnegative")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")


@dataclass
class ColumnBuildRecord:
    """Per-column outcome of a build."""

    k: int
    loops_used: int
    pre_drop_residual: float
    post_drop_residual: float
    nnz_final: int
    met_accuracy: bool | None
    rank_flag: bool = False
    guard_flag: bool = False
    stalled: bool = False
    tol_min: float | None = None
    tol_max: float | None = None


@dataclass
class Preconditioner:
    """Assembled sparse approximate inverse plus its build records.

    ``a_one_norm`` and ``a_nnz`` describe the build operand (the transpose of
    A when ``side == "left"``). ``M`` always has solver-ready orientation:
    apply from the right when built with side="right", from the left otherwise.
    """

    M: SparseMatrix
    records: list[ColumnBuildRecord]
    params: SaiParams | None
    a_one_norm: float
    a_nnz: int
    build_time: float = 0.0
    origin: str = "psai"
    filtered: bool = False

    @property
    def side(self) -> str:
        return self.params.side if self.params is not None else "right"

    @property
    def spar(self) -> float:
        return self.M.nnz / self.a_nnz

    @property
    def r_max(self) -> float:
        """Largest controlling (pre-drop) LS residual over the columns."""
        return max(r.pre_drop_residual for r in self.records)

    @property
    def r_max_post(self) -> float:
        """Largest residual of the emitted (post-drop) columns; this is the
        number that explodes when a dropping tolerance is chosen too large."""
        return max(r.post_drop_residual for r in self.records)

    def coln(self, epsilon: float) -> int:
        return sum(1 for r in self.records if r.pre_drop_residual > epsilon)

    def tol_range(self):
        lows = [r.tol_min for r in self.records if r.tol_min is not None]
        highs = [r.tol_max for r in self.records if r.tol_max is not None]
        if not lows:
            return None, None
        return min(lows), max(highs)


def adaptive_drop_tolerance(epsilon: float, nnz_mk: int, a_one_norm: float) -> float:
    """Adaptive dropping tolerance eps / (nnz(m_k) * ||A||_1)."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if nnz_mk < 1:
        raise ValueError("nnz_mk must be at least 1")
    if a_one_norm <= 0.0:
        raise ValueError("a_one_norm must be positive")
    return epsilon / (nnz_mk * a_one_norm)


def _power_step(A: SparseMatrix, idx: np.ndarray, vals: np.ndarray):
    """One step v <- A v / max|A v| of a sparse power vector (support ``idx``,
    values ``vals``); returns the numerical nonzeros of the result.

    The products are summed in column order, as scipy's CSC matvec sums them,
    and divided by the peak before zeros are selected, so the support is the
    one the dense product would give, cancellations and underflow included.
    """
    if idx.size == 0:
        return idx, vals
    rows, entries, counts = _column_entries(A, idx)
    support, slot = np.unique(rows, return_inverse=True)
    out = np.bincount(slot, weights=entries * np.repeat(vals, counts))
    peak = np.max(np.abs(out), initial=0.0)
    if peak > 0.0:
        out /= peak  # structure only; rescaling guards against overflow
    nonzero = out != 0.0
    return support[nonzero], out[nonzero]


def _grow_column(A: SparseMatrix, k: int, params: SaiParams, a_one_norm: float | None):
    """Shared outer loop: grow the pattern by one power step and re-solve until
    the pre-drop residual meets epsilon, l_max loops are used, or the pattern
    can no longer grow. Given ``a_one_norm``, every solve is followed by a drop
    step that never empties the column (the guard keeps its largest entry)."""
    eps = params.epsilon
    state = ColumnLeastSquares(A, k, [k])
    reached = idx = np.array([k], dtype=np.int64)
    vals = np.ones(1)
    l = 0
    stalled = guard = False
    tols = []
    r_solve = state.residual_norm
    while r_solve > eps and l < params.l_max:
        idx, vals = _power_step(A, idx, vals)
        new = np.setdiff1d(idx, reached, assume_unique=True)
        # stalled: A maps the reached set into itself, so no index can ever
        # be new again
        if new.size == 0 and np.isin(_column_entries(A, reached)[0], reached).all():
            stalled = True
            break
        l += 1
        if new.size == 0:
            continue
        reached = np.union1d(reached, new)
        state.augment(new)
        r_solve = state.residual_norm
        if a_one_norm is None:
            continue
        sol = state.solution
        tols.append(adaptive_drop_tolerance(eps, sol.size, a_one_norm))
        threshold = params.drop_scale * tols[-1] if params.drop_mode == "adaptive" else params.tol
        small = np.abs(sol) <= threshold
        if small.all():
            small[int(np.argmax(np.abs(sol)))] = False
            guard = True
        if small.any():
            state.shrink(state.support[small])
    vec = state.solution_vector()
    return vec, ColumnBuildRecord(
        k=k,
        loops_used=l,
        pre_drop_residual=r_solve,
        post_drop_residual=state.residual_norm,
        nnz_final=vec.nnz,
        met_accuracy=r_solve <= eps,
        rank_flag=state.rank_flag,
        guard_flag=guard,
        stalled=stalled,
        tol_min=min(tols) if tols else None,
        tol_max=max(tols) if tols else None,
    )


def bpsai_column(A: SparseMatrix, k: int, params: SaiParams):
    """One column of the no-dropping adaptive builder."""
    return _grow_column(A, k, params, None)


def psai_tol_column(A: SparseMatrix, k: int, params: SaiParams, a_one_norm: float):
    """One column of the dropping builder (adaptive or fixed tolerance)."""
    if params.drop_mode == "none":
        raise ValueError("psai_tol_column needs a dropping mode")
    return _grow_column(A, k, params, a_one_norm)


def _build_column(k: int, A: SparseMatrix, params: SaiParams, a_one_norm: float):
    if params.drop_mode == "none" or (
        params.drop_mode == "adaptive" and params.drop_scale == 0.0
    ):
        return bpsai_column(A, k, params)
    return psai_tol_column(A, k, params, a_one_norm)


def build_preconditioner(
    A: SparseMatrix, params: SaiParams, threads: int = 1
) -> Preconditioner:
    """Build the sparse approximate inverse of A column by column.

    Columns are independent; with ``threads > 1`` they run in worker
    processes and are deposited into a slot array by index, so the result is
    bit-identical regardless of the worker count.
    """
    if A.nrows != A.ncols:
        raise ValueError("square matrix required")
    if 0 in A.shape:
        raise ValueError(f"cannot build for an empty {A.nrows}x{A.ncols} matrix")
    start = time.perf_counter()
    operand = A.transpose() if params.side == "left" else A
    a_norm = operand.one_norm()
    n = operand.ncols

    results = map_columns(_build_column, (operand, params, a_norm), n, threads)
    columns = [vec for vec, _ in results]
    records = [rec for _, rec in results]
    M = assemble_columns(columns, nrows=n)
    if params.side == "left":
        M = M.transpose()
    return Preconditioner(
        M=M,
        records=records,
        params=params,
        a_one_norm=a_norm,
        a_nnz=operand.nnz,
        build_time=time.perf_counter() - start,
        origin="bpsai" if params.drop_mode == "none" else "psai",
    )

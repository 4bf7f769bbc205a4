"""Adaptive sparse-approximate-inverse construction.

One kernel, ``_grow_block``, grows a fixed block of columns level by level:
the pattern of column k grows by the numerical nonzeros of the powers
A^l e_k, kept as sparse vectors, and every column still growing takes its
next power step from one sparse product A V over the block. Each growth
step ends with one solve of the column's own least-squares problem (a LAPACK
QR of its block, applied to e_k without forming Q; see ``lsq``). A column
stops early (stalled) once A maps its reached index set into itself, as no
index can be new again. The plain builder never drops; the dropping builder
removes small entries after each solve (the block is sliced, not factored) by
a fixed tolerance or the adaptive criterion eps / (nnz(m_k) * ||A||_1), which
keeps the dropped mass small enough that a column meeting the accuracy target
eps still satisfies ||A m_d - e_k||_2 <= 2 eps after dropping. The
per-column entry points ``bpsai_column`` and ``psai_tol_column`` run the same
kernel on a block of one column. Everything around the columns (the checks on
A, the fan-out of the blocks, the assembly of M and the report) is written
once, in ``_build_columns``, and the static builder uses it.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._parallel import map_columns
from .core import SparseMatrix, _column_entries, assemble_columns
from .lsq import ColumnLeastSquares

DROP_MODES = ("none", "adaptive", "fixed")
SIDES = ("right", "left")
# columns per call of a block kernel and per task of the worker pool; fixed,
# so that the blocks do not depend on the worker count. A block holds the
# least-squares states of its growing columns at once: 256 columns were no
# faster than 64 on the benchmark, and held 6 MB more
_BLOCK_COLUMNS = 64


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
            if self.tol is None or not 0.0 < self.tol < np.inf:
                raise ValueError("fixed drop mode needs tol > 0 and finite")
        if not 0.0 <= self.drop_scale < np.inf:
            raise ValueError("drop_scale must be nonnegative and finite")
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
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if nnz_mk < 1:
        raise ValueError("nnz_mk must be at least 1")
    if not a_one_norm > 0.0:
        raise ValueError("a_one_norm must be positive")
    return epsilon / (nnz_mk * a_one_norm)


def _power_steps(A: SparseMatrix, V):
    """One step v <- A v / max|A v| for every column v of ``V`` (scipy CSC,
    row indices sorted in each column), as one sparse product; returns the
    steps as sorted CSC that stores only the numerical nonzeros.

    For each row, scipy's sparse product sums the products in the stored
    order of v, that is in column order, as scipy's CSC matvec sums them,
    and it stores no zero sum. Each column is divided by its own peak before
    zeros are dropped, so its support is the one the dense product would
    give, cancellations and underflow included.
    """
    W = A.to_scipy() @ V
    W.sort_indices()
    counts = np.diff(W.indptr)
    filled = counts > 0
    peaks = np.maximum.reduceat(np.abs(W.data), W.indptr[:-1][filled])
    W.data /= np.repeat(peaks, counts[filled])  # structure only; guards against overflow
    W.eliminate_zeros()
    return W


def _power_step(A: SparseMatrix, idx: np.ndarray, vals: np.ndarray):
    """:func:`_power_steps` on the one sparse power vector with support
    ``idx`` (increasing) and values ``vals``; returns the support and values
    of the result."""
    W = _power_steps(A, sp.csc_matrix((vals, idx, [0, idx.size]), shape=(A.ncols, 1)))
    return W.indices.astype(np.int64), W.data


class _GrowingColumn:
    """Column k in the growth loop: its least-squares state, its power vector
    (support ``idx``, values ``vals``), the indices reached so far (as a
    length-n mask) and the record fields gathered on the way. Given
    ``a_one_norm``, every solve is followed by a drop step that never empties
    the column (the guard keeps its largest entry)."""

    def __init__(self, A: SparseMatrix, k: int, params: SaiParams, a_one_norm: float | None):
        self.A, self.k, self.params, self.a_one_norm = A, k, params, a_one_norm
        self.state = ColumnLeastSquares(A, k, [k])
        self.idx = np.array([k], dtype=np.int64)
        self.reached = np.zeros(A.ncols, dtype=bool)
        self.reached[k] = True
        self.vals = np.ones(1)
        self.loops = 0
        self.stalled = self.guard = False
        self.tols = []
        self.r_solve = self.state.residual_norm

    def grows_on(self) -> bool:
        """Whether the column takes another growth loop. Once it does not,
        its hand-off is taken and its least-squares state released, so that
        a block holds the states of its growing columns only."""
        params = self.params
        if not self.stalled and self.r_solve > params.epsilon and self.loops < params.l_max:
            return True
        tols = self.tols
        self.handoff = _column_result(
            self.state, self.k, loops_used=self.loops, pre_drop_residual=self.r_solve,
            met_accuracy=self.r_solve <= params.epsilon, guard_flag=self.guard,
            stalled=self.stalled,
            tol_min=min(tols) if tols else None, tol_max=max(tols) if tols else None,
        )
        self.state = self.reached = self.idx = self.vals = None
        return False

    def advance(self, idx, vals):
        """One growth loop, given the next power vector ``(idx, vals)``: add
        its new indices, re-solve, then drop."""
        self.idx, self.vals = idx, vals
        new = idx[~self.reached[idx]]
        if new.size == 0:
            # no new index: stalled if A maps the reached set into itself, as
            # no index can then ever be new again; an idle loop otherwise
            rows = _column_entries(self.A, np.flatnonzero(self.reached))[0]
            if self.reached[rows].all():
                self.stalled = True
            else:
                self.loops += 1
            return
        self.loops += 1
        self.reached[new] = True
        self.state.augment(new)
        self.r_solve = self.state.residual_norm
        if self.a_one_norm is None:
            return
        params, sol = self.params, self.state.solution
        self.tols.append(adaptive_drop_tolerance(params.epsilon, sol.size, self.a_one_norm))
        threshold = params.drop_scale * self.tols[-1] if params.drop_mode == "adaptive" else params.tol
        small = np.abs(sol) <= threshold
        if small.all():
            small[int(np.argmax(np.abs(sol)))] = False
            self.guard = True
        if small.any():
            self.state.shrink(self.state.support[small])


def _grow_block(A: SparseMatrix, ks, params: SaiParams, a_one_norm: float | None) -> list:
    """The growth loop of the columns ``ks``, level-synchronous: every column
    still growing (pre-drop residual above epsilon, fewer than l_max loops
    used, not stalled) advances one loop together, with its power step taken
    from one sparse product for all of them. Given ``a_one_norm``, each
    column drops after every solve. Returns the hand-off of each column, in
    order."""
    columns = [_GrowingColumn(A, k, params, a_one_norm) for k in ks]
    active = [c for c in columns if c.grows_on()]
    while active:
        indptr = np.zeros(len(active) + 1, dtype=np.int64)
        np.cumsum([c.idx.size for c in active], out=indptr[1:])
        V = sp.csc_matrix(
            (np.concatenate([c.vals for c in active]), np.concatenate([c.idx for c in active]),
             indptr),
            shape=(A.ncols, len(active)),
        )
        W = _power_steps(A, V)
        for c, lo, hi in zip(active, W.indptr[:-1], W.indptr[1:]):
            c.advance(W.indices[lo:hi], W.data[lo:hi])
        active = [c for c in active if c.grows_on()]
    return [c.handoff for c in columns]


def _column_result(state: ColumnLeastSquares, k: int, **fields):
    """The hand-off of every built column: ``((indices, values), record)``
    read from its least-squares ``state``, with the record fields the state
    does not hold given as ``fields``."""
    solution = state.solution
    return (state.support, solution), ColumnBuildRecord(
        k=k,
        post_drop_residual=state.residual_norm,
        nnz_final=int(np.count_nonzero(solution)),
        rank_flag=state.rank_flag,
        **fields,
    )


def bpsai_column(A: SparseMatrix, k: int, params: SaiParams):
    """One column of the no-dropping adaptive builder, as ``((indices, values),
    record)`` with increasing indices; values may hold exact zeros, which
    :func:`assemble_columns` purges (``record.nnz_final`` does not count them).
    It is the block kernel the build runs, on the block of column k alone."""
    return _grow_block(A, [k], params, None)[0]


def psai_tol_column(A: SparseMatrix, k: int, params: SaiParams, a_one_norm: float):
    """One column of the dropping builder (adaptive or fixed tolerance), in the
    form :func:`bpsai_column` returns."""
    if params.drop_mode == "none":
        raise ValueError("psai_tol_column needs a dropping mode")
    return _grow_block(A, [k], params, a_one_norm)[0]


def _build_block(ks, A: SparseMatrix, a_one_norm: float, params: SaiParams) -> list:
    drops = params.drop_mode == "fixed" or (
        params.drop_mode == "adaptive" and params.drop_scale != 0.0
    )
    return _grow_block(A, ks, params, a_one_norm if drops else None)


def _build_columns(A: SparseMatrix, block, args: tuple, params: SaiParams | None, threads: int):
    """The build around its columns, shared by the adaptive and the static
    builders: check A, take the operand (A, or its transpose for
    ``params.side == "left"``) and its 1-norm, run ``block(ks, operand,
    a_one_norm, *args)`` on consecutive blocks ``ks`` of ``_BLOCK_COLUMNS``
    columns (a list of column hand-offs each), assemble M in solver-ready
    orientation and time the whole build."""
    if A.nrows != A.ncols:
        raise ValueError("square matrix required")
    if 0 in A.shape:
        raise ValueError(f"cannot build for an empty {A.nrows}x{A.ncols} matrix")
    start = time.perf_counter()
    left = params is not None and params.side == "left"
    operand = A.transpose() if left else A
    a_norm = operand.one_norm()
    n = operand.ncols
    blocks = map_columns(block, (operand, a_norm, *args), n, threads, _BLOCK_COLUMNS)
    results = [result for done in blocks for result in done]
    M = assemble_columns([col for col, _ in results], n)
    return Preconditioner(
        M=M.transpose() if left else M,
        records=[rec for _, rec in results],
        params=params,
        a_one_norm=a_norm,
        a_nnz=operand.nnz,
        build_time=time.perf_counter() - start,
    )


def build_preconditioner(A: SparseMatrix, params: SaiParams, threads: int = 1) -> Preconditioner:
    """Build the sparse approximate inverse of A, one block of columns at a
    time.

    Columns are independent; with ``threads > 1`` the blocks run in worker
    processes and come back in order, so the result is bit-identical
    regardless of the worker count.
    """
    return _build_columns(A, _build_block, (params,), params, threads)

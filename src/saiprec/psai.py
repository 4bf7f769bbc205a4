"""Adaptive sparse-approximate-inverse construction.

One kernel, ``_grow_block``, grows a fixed block of columns level by level:
the pattern of column k grows by the numerical nonzeros of the powers
A^l e_k, kept as sparse vectors, and every column still growing takes its
next power step from one sparse product A V over the block. The setup
around the solves is level-synchronous too: a level finds every column's new
indices in one 2-D reached mask, merges the grown patterns with one keyed
sort and gathers all their blocks A(R, S) with one ``core._gather_blocks``
call. Each growth step ends with one solve of the column's own
least-squares problem (a LAPACK QR of its block, applied to e_k without
forming Q; see ``lsq``). A column stops early (stalled) once A maps its
reached index set into itself, as no index can be new again. The plain
builder never drops; the dropping builder removes small entries after each
solve (the block is sliced, not factored) by a fixed tolerance or the
adaptive criterion eps / (nnz(m_k) * ||A||_1), which keeps the dropped mass
small enough that a column meeting the accuracy target eps still satisfies
||A m_d - e_k||_2 <= 2 eps after dropping. The per-column entry points ``bpsai_column`` and ``psai_tol_column`` run the same
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
from .core import SparseMatrix, _as_index, _gather_blocks, assemble_columns
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
    (support ``idx``, values ``vals``), its ``slot`` in the block, the
    indices reached so far (``reached``, its row of the block's reached
    mask) and the record fields gathered on the way. Given ``a_one_norm``,
    every solve is followed by a drop step that never empties the column
    (the guard keeps its largest entry)."""

    def __init__(self, A: SparseMatrix, k: int, params: SaiParams, a_one_norm: float | None,
                 slot: int, reached: np.ndarray, gathered):
        self.A, self.k, self.params, self.a_one_norm = A, k, params, a_one_norm
        self.state = ColumnLeastSquares(A, k, gathered[0], gathered)
        self.idx = np.array([k], dtype=np.int64)
        self.slot, self.reached = slot, reached
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

    def advance(self, idx, vals, new, gathered):
        """One growth loop, given the next power vector ``(idx, vals)``, its
        indices ``new`` that were not reached before (now marked reached)
        and, when there are any, the ``(support, block, rows)`` of the grown
        pattern: re-solve, then drop."""
        self.idx, self.vals = idx, vals
        if new.size == 0:
            # no new index: stalled if A maps the reached set into itself, as
            # no index can then ever be new again; an idle loop otherwise
            rows = self.A.column(np.flatnonzero(self.reached))[0]
            if self.reached[rows].all():
                self.stalled = True
            else:
                self.loops += 1
            return
        self.loops += 1
        self.state.augment(new, gathered)
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


def _merged_supports(supports: list, new: np.ndarray, new_counts: np.ndarray, n: int) -> list:
    """Each pattern of ``supports`` merged with its run of ``new`` (the
    runs are consecutive, ``new_counts`` entries each) by one sort of
    (pattern, index) keys; a new index already in its pattern raises
    ``ValueError``."""
    offsets = np.arange(len(supports)) * n
    sizes = np.fromiter((s.size for s in supports), dtype=np.int64, count=len(supports))
    keys = np.concatenate([np.concatenate(supports) + np.repeat(offsets, sizes),
                           new + np.repeat(offsets, new_counts)])
    keys.sort()
    # a pattern and its run are each strictly increasing, so a key repeats
    # iff a new index meets its pattern
    if not (keys[1:] > keys[:-1]).all():
        raise ValueError("augment indices must be disjoint from the pattern")
    sizes += new_counts
    keys -= np.repeat(offsets, sizes)
    ends = np.cumsum(sizes).tolist()
    return [keys[hi - size:hi] for hi, size in zip(ends, sizes.tolist())]


def _grow_block(A: SparseMatrix, ks, params: SaiParams, a_one_norm: float | None) -> list:
    """The growth loop of the columns ``ks``, level-synchronous: every column
    still growing (pre-drop residual above epsilon, fewer than l_max loops
    used, not stalled) advances one loop together. A level takes the power
    steps from one sparse product, the new indices from one 2-D reached
    mask (column by index), the grown patterns from one keyed sort and all
    their blocks A(R, S) from one ``_gather_blocks`` call, as the first
    solves on the patterns {k} take theirs. Each column then solves, and
    given ``a_one_norm`` drops, on its own least-squares state. Returns the
    hand-off of each column, in order."""
    ks = list(ks)
    reached = np.zeros((len(ks), A.ncols), dtype=bool)
    reached[np.arange(len(ks)), ks] = True
    firsts = [np.array([k], dtype=np.int64) for k in ks]
    blocks = _gather_blocks(A, firsts, ks)
    columns = [_GrowingColumn(A, k, params, a_one_norm, slot, reached[slot],
                              (firsts[slot], *blocks[slot])) for slot, k in enumerate(ks)]
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
        entry_slot = np.repeat([c.slot for c in active], np.diff(W.indptr))
        is_new = ~reached[entry_slot, W.indices]
        new = W.indices[is_new].astype(np.int64)
        reached[entry_slot[is_new], new] = True
        new_ptr = np.concatenate(([0], np.cumsum(is_new)))[W.indptr]
        new_counts = np.diff(new_ptr)
        grown = [c for c, count in zip(active, new_counts.tolist()) if count]
        gathered = iter(())
        if grown:
            supports = _merged_supports([c.state.support for c in grown], new,
                                        new_counts[new_counts > 0], A.ncols)
            blocks = _gather_blocks(A, supports, [c.k for c in grown])
            gathered = iter([(s, *b) for s, b in zip(supports, blocks)])
        steps, news = W.indptr.tolist(), new_ptr.tolist()
        for c, lo, hi, a, b in zip(active, steps, steps[1:], news, news[1:]):
            c.advance(W.indices[lo:hi], W.data[lo:hi], new[a:b], next(gathered) if b > a else None)
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
    return _single_column(A, k, params, None)


def psai_tol_column(A: SparseMatrix, k: int, params: SaiParams, a_one_norm: float):
    """One column of the dropping builder (adaptive or fixed tolerance), in the
    form :func:`bpsai_column` returns."""
    if params.drop_mode == "none":
        raise ValueError("psai_tol_column needs a dropping mode")
    return _single_column(A, k, params, a_one_norm)


def _single_column(A: SparseMatrix, k, params: SaiParams, a_one_norm: float | None):
    """:func:`_grow_block` on the block of column k alone, k checked as
    ``ColumnLeastSquares`` checks it."""
    k = _as_index(k, "column index")
    if not 0 <= k < A.ncols:
        raise ValueError("column index out of range")
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

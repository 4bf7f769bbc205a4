"""Adaptive sparse-approximate-inverse construction.

One kernel, ``_grow_block``, grows a fixed block of columns level by level,
and the block holds all of their growth state. The pattern of column k grows
by the numerical nonzeros of the powers A^l e_k: the power vectors of the
columns still growing are the columns of one sparse matrix V, and a level
takes all their next steps from one product A V, which becomes the next V
once the columns that stopped are cut out. A level finds every column's new
indices in one 2-D reached mask, merges the grown patterns with one keyed
sort and gathers all their blocks A(R, S) with one ``core._gather_blocks``
call. Each growing column then solves its own least-squares problem (a
LAPACK QR of its block, applied to e_k without forming Q; see ``lsq``). A
column stops early (stalled) once A maps its reached index set into itself,
as no index can be new again. The block writes each column's loop count,
flags, least and largest drop tolerance and residuals straight into the
fields of its record table, and holds the least-squares state of each
column until the column stops growing.

Whether a build drops is one rule, ``SaiParams.drops``: a fixed tolerance,
or the adaptive criterion eps / (nnz(m_k) * ||A||_1) with a nonzero
``drop_scale``. A dropping build removes small entries after each level's
solves in one ``_drop_mask`` pass, shared with the static postfilter (blocks
are sliced, not factored); the adaptive criterion keeps the dropped mass
small enough that a column meeting the accuracy target eps still satisfies
||A m_d - e_k||_2 <= 2 eps after dropping. The per-column
entry points ``bpsai_column`` and ``psai_tol_column`` run the same kernel on
a block of one column, and the static builder runs it started from the
columns of a prescribed pattern, with no growth and no drop. Everything
around the columns (the checks on A, the fan-out of the blocks, the
assembly of M and the report) is written once, in ``_build_columns``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._parallel import map_columns
from .core import SparseMatrix, _as_index, _as_real, _gather_blocks, _merged_supports, assemble_columns
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
    tol: the fixed mode's tolerance; None in the other modes.
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
        if _checked_epsilon(self.epsilon) >= 0.5:
            warnings.warn(
                "epsilon >= 0.5: the dropping theory assumes epsilon < 0.5",
                stacklevel=2,
            )
        if _as_index(self.l_max, "l_max") < 1:
            raise ValueError("l_max must be at least 1")
        if self.drop_mode not in DROP_MODES:
            raise ValueError(f"drop_mode must be one of {DROP_MODES}")
        if self.drop_mode == "fixed":
            if self.tol is None or not 0.0 < _as_real(self.tol, "tol") < np.inf:
                raise ValueError("fixed drop mode needs tol > 0 and finite")
        elif self.tol is not None:
            raise ValueError(f"tol is used by the fixed drop mode only, not {self.drop_mode!r}")
        if not 0.0 <= _as_real(self.drop_scale, "drop_scale") < np.inf:
            raise ValueError("drop_scale must be nonnegative and finite")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")

    @property
    def drops(self) -> bool:
        """Whether a build with these parameters drops: a fixed tolerance, or
        the adaptive criterion with a nonzero ``drop_scale``."""
        return self.drop_mode == "fixed" or (
            self.drop_mode == "adaptive" and self.drop_scale != 0.0)


# one record per operand column; NaN tolerances: the column ran no drop step
RECORD_DTYPE = np.dtype([
    ("k", np.int64), ("loops_used", np.int64), ("pre_drop_residual", float),
    ("post_drop_residual", float), ("nnz_final", np.int64), ("rank_flag", bool),
    ("guard_flag", bool), ("stalled", bool), ("tol_min", float), ("tol_max", float)])


@dataclass
class Preconditioner:
    """Assembled sparse approximate inverse plus its build records.

    ``a_one_norm`` and ``a_nnz`` describe the build operand (the transpose of
    A when ``side == "left"``). ``M`` always has solver-ready orientation:
    apply from the right when built with side="right", from the left otherwise.
    """

    M: SparseMatrix
    records: np.recarray  # of RECORD_DTYPE, one row per operand column
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
        """nnz(M) / nnz(A); nan for an A with no entries (0/0 has no density)."""
        return self.M.nnz / self.a_nnz if self.a_nnz else float("nan")

    @property
    def r_max(self) -> float:
        """Largest controlling (pre-drop) LS residual over the columns."""
        return float(self.records.pre_drop_residual.max())

    @property
    def r_max_post(self) -> float:
        """Largest residual of the emitted (post-drop) columns; this is the
        number that explodes when a dropping tolerance is chosen too large."""
        return float(self.records.post_drop_residual.max())

    def coln(self, epsilon: float) -> int:
        return int(np.count_nonzero(self.records.pre_drop_residual > epsilon))

    def tol_range(self):
        """Least and largest drop tolerance; (None, None) if no column dropped."""
        if np.isnan(self.records.tol_min).all():
            return None, None
        return float(np.nanmin(self.records.tol_min)), float(np.nanmax(self.records.tol_max))


def _checked_epsilon(epsilon) -> float:
    """``epsilon`` as a float in (0, 1), the targets the dropping theory covers."""
    if not 0.0 < _as_real(epsilon, "epsilon") < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return float(epsilon)


def adaptive_drop_tolerance(epsilon: float, nnz_mk, a_one_norm: float):
    """Adaptive dropping tolerance eps / (nnz(m_k) * ||A||_1), one per count;
    a float for one count given as a scalar."""
    epsilon = _checked_epsilon(epsilon)
    counts = np.asarray(nnz_mk)
    if counts.dtype.kind not in "iu":
        raise TypeError(f"nnz_mk must be an integer count, got {nnz_mk!r}")
    if np.any(counts < 1):
        raise ValueError("nnz_mk must be at least 1")
    if not 0.0 < _as_real(a_one_norm, "a_one_norm") < np.inf:
        raise ValueError("a_one_norm must be positive and finite")
    tols = epsilon / (counts * a_one_norm)
    return tols if counts.ndim else float(tols)


def _drop_mask(values: np.ndarray, counts: np.ndarray, threshold):
    """``(keep, guard)`` for columns of ``counts`` entries (zero allowed) stored
    one after another: an entry at or below its column's ``threshold`` (one
    per column, or a scalar) in magnitude is dropped, but a column that would
    lose every entry keeps its largest (the first of equal ones), flagged."""
    magnitude = np.abs(values)
    keep = magnitude > np.repeat(np.broadcast_to(threshold, counts.shape), counts)
    ptr = np.concatenate(([0], np.cumsum(counts)))
    guard = (counts > 0) & (np.diff(np.concatenate(([0], np.cumsum(keep)))[ptr]) == 0)
    for lo, hi in zip(ptr[:-1][guard].tolist(), ptr[1:][guard].tolist()):
        keep[lo + np.argmax(magnitude[lo:hi])] = True
    return keep, guard


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


def _grow_block(ks, A: SparseMatrix, a_one_norm: float | None, params: SaiParams | None,
                col_ptr=None, row_idx=None) -> tuple:
    """The growth loop of the columns ``ks``, level-synchronous: every column
    still growing (pre-drop residual above epsilon, fewer than l_max loops
    used, not stalled) advances one loop together. Column k starts from {k},
    or from the rows of column k of the pattern with CSC arrays ``col_ptr``
    and ``row_idx``; the first solves take all their blocks A(R, S) from one
    ``_gather_blocks`` call. With ``params`` None (the static builder) each
    column solves once on its start and neither grows nor drops. A level
    takes the power steps from one sparse product, the new indices from one
    2-D reached mask (column by index), the grown patterns from one keyed
    sort and all their blocks from one ``_gather_blocks`` call. Each grown
    column then solves on its own least-squares state, and if
    ``params.drops`` one ``_drop_mask`` pass drops from all of them, each
    keeping at least its largest entry (the guard); with ``a_one_norm`` None
    (the plain builder) no column drops. Returns the columns ``(indices,
    values)`` and their record table, whose fields the loop works on."""
    ks = np.asarray(ks, dtype=np.int64)
    n = A.ncols
    eps, l_max = (params.epsilon, params.l_max) if params is not None else (0.0, 0)
    drops = params is not None and a_one_norm is not None and params.drops
    records = np.zeros(ks.size, dtype=RECORD_DTYPE).view(np.recarray)
    records.k = ks
    records.tol_min = records.tol_max = np.nan  # NaN until the column's first drop step
    residual, post, nnz, rank = (records.pre_drop_residual, records.post_drop_residual,
                                 records.nnz_final, records.rank_flag)
    loops, stalled, guard = records.loops_used, records.stalled, records.guard_flag
    tol_min, tol_max = records.tol_min, records.tol_max
    reached = np.zeros((ks.size, n), dtype=bool)
    reached[np.arange(ks.size), ks] = True
    firsts = ([ks[slot:slot + 1] for slot in range(ks.size)] if col_ptr is None
              else [row_idx[col_ptr[k]:col_ptr[k + 1]] for k in ks.tolist()])
    states = [ColumnLeastSquares(A, k, first, (first, *block)) for k, first, block
              in zip(ks.tolist(), firsts, _gather_blocks(A, firsts, ks))]
    residual[:] = [state.residual_norm for state in states]
    columns = [None] * ks.size  # filled as the columns stop
    active = np.arange(ks.size)  # the slots of the columns that took the last step
    V = sp.csc_matrix((np.ones(ks.size), ks, np.arange(ks.size + 1)), shape=(n, ks.size))
    while True:
        grows = ~stalled[active] & (residual[active] > eps) & (loops[active] < l_max)
        for slot in active[~grows].tolist():
            state, states[slot] = states[slot], None
            columns[slot] = state.support, state.solution
            post[slot], nnz[slot] = state.residual_norm, np.count_nonzero(columns[slot][1])
            rank[slot] = state.rank_flag
        if not grows.any():
            return columns, records
        if not grows.all():
            keep = np.flatnonzero(grows)
            active, V = active[keep], V[:, keep]
        V = _power_steps(A, V)
        entry_slot = np.repeat(active, np.diff(V.indptr))
        is_new = ~reached[entry_slot, V.indices]
        new = V.indices[is_new].astype(np.int64)
        reached[entry_slot[is_new], new] = True
        new_ptr = np.concatenate(([0], np.cumsum(is_new)))[V.indptr]
        starts, ends = new_ptr[:-1], new_ptr[1:]  # each stepped column's run of new
        grew = ends > starts
        for slot in active[~grew].tolist():
            # no new index: stalled if A maps the reached set into itself, as
            # no index can then ever be new again; an idle loop otherwise
            rows = A.column(np.flatnonzero(reached[slot]))[0]
            stalled[slot] = reached[slot, rows].all()
        loops[active] += ~stalled[active]
        grown = active[grew]
        if grown.size == 0:
            continue
        level = [states[slot] for slot in grown.tolist()]
        supports = _merged_supports([state.support for state in level], new,
                                    (ends - starts)[grew], n)
        blocks = _gather_blocks(A, supports, ks[grown])
        for state, lo, hi, support, block in zip(level, starts[grew].tolist(),
                                                  ends[grew].tolist(), supports, blocks):
            state.augment(new[lo:hi], (support, *block))
        residual[grown] = [state.residual_norm for state in level]
        if not drops:
            continue
        solutions = [state.solution for state in level]
        counts = np.array([solution.size for solution in solutions])
        level_tols = adaptive_drop_tolerance(eps, counts, a_one_norm)
        tol_min[grown] = np.fmin(tol_min[grown], level_tols)
        tol_max[grown] = np.fmax(tol_max[grown], level_tols)
        threshold = (params.drop_scale * level_tols if params.drop_mode == "adaptive"
                     else params.tol)
        kept, flagged = _drop_mask(np.concatenate(solutions), counts, threshold)
        guard[grown] |= flagged  # a column flagged at any level stays flagged
        at = np.cumsum(counts) - counts  # where each solution starts
        for i in np.flatnonzero(np.logical_or.reduceat(~kept, at)).tolist():
            state = level[i]
            state.shrink(state.support[~kept[at[i]:at[i] + counts[i]]])


def bpsai_column(A: SparseMatrix, k: int, params: SaiParams):
    """One column of the no-dropping adaptive builder, as ``((indices, values),
    record)`` with increasing indices; values may hold exact zeros, which
    :func:`assemble_columns` purges (``record.nnz_final`` does not count them).
    It is the block kernel the build runs on column k alone; ``record`` is a row."""
    return _single_column(A, k, None, params)


def psai_tol_column(A: SparseMatrix, k: int, params: SaiParams, a_one_norm: float):
    """One column of the dropping builder (adaptive or fixed tolerance), in the
    form :func:`bpsai_column` returns; ``params`` must drop
    (:attr:`SaiParams.drops`) and ``a_one_norm`` positive and finite, or 0
    for an A with no entries, on which no drop step runs."""
    if not params.drops:
        raise ValueError("psai_tol_column needs params that drop: drop_mode 'fixed', "
                         "or 'adaptive' with drop_scale above 0")
    if not (0.0 < a_one_norm < np.inf or (a_one_norm == 0.0 and A.nnz == 0)):
        raise ValueError("a_one_norm must be positive and finite")
    return _single_column(A, k, a_one_norm, params)


def _single_column(A: SparseMatrix, k, a_one_norm: float | None, params: SaiParams):
    """:func:`_grow_block` on the block of column k alone, k checked as
    ``ColumnLeastSquares`` checks it."""
    k = _as_index(k, "column index")
    if not 0 <= k < A.ncols:
        raise ValueError("column index out of range")
    columns, records = _grow_block([k], A, a_one_norm, params)
    return columns[0], records[0]


def _build_columns(A: SparseMatrix, block, args: tuple, params: SaiParams | None, threads: int):
    """The build around its columns, shared by the adaptive and the static
    builders: check A, take the operand (A, or its transpose for
    ``params.side == "left"``) and its 1-norm, run ``block(ks, operand,
    a_one_norm, *args)`` on consecutive blocks ``ks`` of ``_BLOCK_COLUMNS``
    columns (their columns and record table each), assemble M in solver-ready
    orientation, join the tables and time the whole build."""
    if _as_index(threads, "threads") < 0:
        raise ValueError(f"threads must be 0 or more, got {threads}")
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
    M = assemble_columns([col for columns, _ in blocks for col in columns], n)
    return Preconditioner(
        M=M.transpose() if left else M,
        records=np.concatenate([table for _, table in blocks]).view(np.recarray),
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
    return _build_columns(A, _grow_block, (params,), params, threads)

"""Per-column least-squares problems min ||A(:, S) m - e_k||_2, solved with
one Householder QR of the block A(R, S) per solve, called straight from
LAPACK: ``dgeqrf`` factors the block, ``dormqr`` applies Q^T to e_k and
``dtrtrs`` solves with R; Q is never formed.

The block is reduced to the rows R that actually carry information: the union
of the row supports of the columns in S. Row k is force-included in R so that
the reduced residual equals the full-height residual exactly (rows outside R
have a zero block row and a zero right-hand side).

The rank test compares each pivot with n * eps times its column's 2-norm, read
from ``A.column_norms()``, which is computed once per matrix: A stores no
zeros and R covers the rows of every column in S, so a block column's norm is
the norm of A's column.

A shrink refactors the sliced block when :attr:`rank_flag` is read, even when
the block was not flagged. In exact arithmetic that flag could be kept:
removing columns cannot lower a kept column's pivot (its distance to the span
of fewer preceding columns can only grow), the threshold n * eps * ||a_j||
does not change, and the removed rows are zero in the kept columns. In
floating point a pivot within rounding of the threshold can fall below it
after the shrink, so keeping the flag would make it depend on the pattern's
history.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgeqrf, dormqr, dtrtrs

from .core import SparseMatrix, _as_index, _gather_blocks, _index_set, _merged_supports

_EPS = np.finfo(np.float64).eps


class ColumnLeastSquares:
    """State of one column's LS problem: pattern, gathered block, solution.

    Construction and :meth:`augment` take the block A(R, S) of the new
    pattern and solve with one QR of it (``dgeqrf``, Q^T e_k by ``dormqr``,
    R x = Q^T e_k by ``dtrtrs``). The block is either gathered afresh from A
    or handed in as ``gathered``: the new support (sorted, in range) and the
    ``(block, rows)`` that ``core._gather_blocks`` returns for it and row k.
    The builders gather the blocks of many columns with one such call; a
    handed-in block is not checked against ``pattern`` or ``new_indices``.
    :meth:`shrink` slices the held block and neither factors nor re-solves:
    the kept coefficients keep their values (the builders' dropped-column
    semantics).

    Rank deficiency (a pivot at or below ``n * eps * column_norm``, or a
    column with no pivot row left) switches solves to a minimum-norm fallback
    and sets :attr:`rank_flag`; the pivots are read from the same factor and
    the column norms from ``A.column_norms()``. After a shrink the flag is
    computed from a ``dgeqrf`` of the new block when it is first read (see
    the module docstring). A solution that is not finite (an entry of A so
    small that its inverse overflows) raises ``ValueError`` naming column k.

    The builders hand ``(support, solution)`` on as the column of M; a
    coefficient may come out exactly zero, and assembly purges it.
    """

    def __init__(self, A: SparseMatrix, k: int, pattern, gathered=None):
        if A.nrows != A.ncols:
            raise ValueError("column least squares expects a square matrix")
        k = _as_index(k, "column index")
        if not (0 <= k < A.ncols):
            raise ValueError("column index out of range")
        self._A, self.k = A, k
        if gathered is None:
            support = _index_set(pattern, A.ncols)
            if support.size == 0:
                raise ValueError("initial pattern must be non-empty")
            gathered = self._gather(support)
        self._set_pattern(*gathered)
        self._solve()

    # ------------------------------------------------------------------
    @property
    def support(self) -> np.ndarray:
        """Pattern indices in increasing order, aligned with :attr:`solution`."""
        return self._support

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def solution(self) -> np.ndarray:
        """Coefficients aligned with :attr:`support`."""
        return self._solution.copy()

    @property
    def rank_flag(self) -> bool:
        if self._rank_flag is None:
            self._rank_flag = self._deficient(dgeqrf(self._block)[0])
        return self._rank_flag

    # ------------------------------------------------------------------
    def augment(self, new_indices, gathered=None) -> "ColumnLeastSquares":
        """Grow the pattern by ``new_indices`` (disjoint from it) and re-solve."""
        if gathered is None:
            new = _index_set(new_indices, self._A.ncols)
            if new.size == 0:
                return self
            support = _merged_supports([self._support], new, [new.size], self._A.ncols)[0]
            gathered = self._gather(support)
        self._set_pattern(*gathered)
        self._solve()
        return self

    def shrink(self, removed) -> "ColumnLeastSquares":
        """Remove pattern indices; the block is sliced, values are kept.

        The surviving coefficients keep their current values (no re-solve);
        :attr:`residual_norm` is recomputed for the kept values.
        """
        removed = _index_set(removed, self._A.ncols)
        if removed.size == 0:
            return self
        # both are sorted: each removed index must sit where searchsorted puts it
        at = np.searchsorted(self._support, removed)
        if not np.array_equal(self._support.take(at, mode="clip"), removed):
            raise ValueError("can only remove indices present in the pattern")
        if removed.size == self._support.size:
            raise ValueError("cannot remove the entire pattern")
        keep = np.ones(self._support.size, dtype=bool)
        keep[at] = False
        # A stores no zeros, so the rows nonzero in the kept columns (plus row
        # k) are exactly the rows a regather of A(:, S) would find
        block = self._block[:, keep]
        live = block.any(axis=1) | (self._rows == self.k)
        self._set_pattern(self._support[keep], block[live], self._rows[live])
        self._solution = self._solution[keep]
        self._set_residual()
        return self

    # ------------------------------------------------------------------
    def _gather(self, support: np.ndarray):
        return (support, *_gather_blocks(self._A, [support], [self.k])[0])

    def _set_pattern(self, support: np.ndarray, block: np.ndarray, rows: np.ndarray):
        self._support, self._block, self._rows = support, block, rows
        support.setflags(write=False)
        rows.setflags(write=False)
        self._rhs = (rows == self.k).astype(np.float64)
        self._rank_flag = None

    def _deficient(self, R: np.ndarray) -> bool:
        pivots = np.abs(R.diagonal())
        norms = self._A.column_norms()[self._support]
        # with more columns than rows the trailing columns have no pivot row
        return pivots.size < norms.size or bool((pivots <= self._A.nrows * _EPS * norms).any())

    def _solve(self):
        qr, tau, _, _ = dgeqrf(self._block)
        self._rank_flag = self._deficient(qr)
        if self._rank_flag:
            solution = np.linalg.lstsq(self._block, self._rhs, rcond=None)[0]
        else:
            # Q^T e_k from the Householder vectors, then R x = (Q^T e_k)[:n]
            qtb, _, _ = dormqr("L", "T", qr, tau, self._rhs[:, None], 1)
            solution = dtrtrs(qr, qtb, overwrite_b=1)[0][: qr.shape[1], 0]
        if not np.isfinite(solution).all():
            raise ValueError(f"column {self.k}: the least-squares solution is not finite")
        self._solution = solution
        self._set_residual()

    def _set_residual(self):
        r = self._block @ self._solution - self._rhs
        self.residual_norm = math.sqrt(r.dot(r))  # np.linalg.norm's sum

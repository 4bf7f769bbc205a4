"""Per-column least-squares problems min ||A(:, S) m - e_k||_2, solved with
one dense QR of the block A(R, S) per solve.

The block is reduced to the rows R that actually carry information: the union
of the row supports of the columns in S. Row k is force-included in R so that
the reduced residual equals the full-height residual exactly (rows outside R
have a zero block row and a zero right-hand side).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .core import ColumnPattern, SparseMatrix, SparseVector, _gather

_EPS = np.finfo(np.float64).eps


class ColumnLeastSquares:
    """State of one column's LS problem: pattern, gathered block, solution.

    Construction and :meth:`augment` gather the block A(R, S) afresh and solve
    with one QR of it. :meth:`shrink` slices the held block and neither
    factors nor re-solves: the kept coefficients keep their values (the
    builders' dropped-column semantics).

    Rank deficiency (a pivot at or below ``n * eps * column_norm``, or a
    column with no pivot row left) switches solves to a minimum-norm fallback
    and sets :attr:`rank_flag`; after a shrink the flag is computed from the
    R factor of the new block when it is first read.
    """

    def __init__(self, A: SparseMatrix, k: int, pattern):
        if A.nrows != A.ncols:
            raise ValueError("column least squares expects a square matrix")
        if not (0 <= k < A.ncols):
            raise ValueError("column index out of range")
        support = ColumnPattern.coerce(pattern).indices
        if support.size == 0:
            raise ValueError("initial pattern must be non-empty")
        if support[-1] >= A.ncols:
            raise ValueError("pattern index out of range")
        self._A, self.k = A, int(k)
        self._set_pattern(support, *_gather(self._A, support, np.array([self.k])))
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
            self._rank_flag = self._deficient(np.linalg.qr(self._block, mode="r"))
        return self._rank_flag

    def solution_vector(self) -> SparseVector:
        return SparseVector(self._A.nrows, self._support, self._solution)

    # ------------------------------------------------------------------
    def augment(self, new_indices) -> "ColumnLeastSquares":
        """Grow the pattern by ``new_indices`` (disjoint from it) and re-solve."""
        new = ColumnPattern.coerce(new_indices).indices
        if new.size == 0:
            return self
        if new[-1] >= self._A.ncols:
            raise ValueError("pattern index out of range")
        support = np.union1d(self._support, new)
        if support.size != self._support.size + new.size:
            raise ValueError("augment indices must be disjoint from the pattern")
        self._set_pattern(support, *_gather(self._A, support, np.array([self.k])))
        self._solve()
        return self

    def shrink(self, removed) -> "ColumnLeastSquares":
        """Remove pattern indices; the block is sliced, values are kept.

        The surviving coefficients keep their current values (no re-solve);
        :attr:`residual_norm` is recomputed for the kept values.
        """
        removed = ColumnPattern.coerce(removed).indices
        if removed.size == 0:
            return self
        keep = ~np.isin(self._support, removed)
        if keep.size - np.count_nonzero(keep) != removed.size:
            raise ValueError("can only remove indices present in the pattern")
        if not keep.any():
            raise ValueError("cannot remove the entire pattern")
        # A stores no zeros, so the rows nonzero in the kept columns (plus row
        # k) are exactly the rows a regather of A(:, S) would find
        block = self._block[:, keep]
        live = block.any(axis=1) | (self._rows == self.k)
        self._set_pattern(self._support[keep], block[live], self._rows[live])
        self._solution = self._solution[keep]
        self._set_residual()
        return self

    # ------------------------------------------------------------------
    def _set_pattern(self, support: np.ndarray, block: np.ndarray, rows: np.ndarray):
        self._support, self._block, self._rows = support, block, rows
        support.setflags(write=False)
        rows.setflags(write=False)
        self._rhs = (rows == self.k).astype(np.float64)
        self._rank_flag = None

    def _deficient(self, R: np.ndarray) -> bool:
        pivots = np.abs(np.diagonal(R))
        norms = np.linalg.norm(self._block, axis=0)
        # with more columns than rows the trailing columns have no pivot row
        return pivots.size < norms.size or bool(np.any(pivots <= self._A.nrows * _EPS * norms))

    def _solve(self):
        Q, R = np.linalg.qr(self._block)
        self._rank_flag = self._deficient(R)
        if self._rank_flag:
            self._solution, *_ = np.linalg.lstsq(self._block, self._rhs, rcond=None)
        else:
            qtb = Q[np.searchsorted(self._rows, self.k)]
            self._solution = sla.solve_triangular(R, qtb, check_finite=False)
        self._set_residual()

    def _set_residual(self):
        self.residual_norm = float(np.linalg.norm(self._block @ self._solution - self._rhs))

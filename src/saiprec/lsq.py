"""Per-column least-squares problems min ||A(:, S) m - e_k||_2, refactored
from scratch with one dense QR every time the pattern S changes.

The block is reduced to the rows R that actually carry information: the union
of the row supports of the columns in S. Row k is force-included in R so that
the reduced residual equals the full-height residual exactly (rows outside R
have a zero block row and a zero right-hand side).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .core import ColumnPattern, SparseMatrix, SparseVector, gather_submatrix

_EPS = np.finfo(np.float64).eps


class ColumnLeastSquares:
    """State of one column's LS problem: pattern, QR factors, solution.

    Every pattern change (construction, :meth:`augment`, :meth:`shrink`)
    gathers the block A(R, S) afresh and factors it with one QR. :meth:`shrink`
    does not re-solve: the retained coefficients keep their values, which is
    exactly the dropped-column semantics the builders need.

    Rank deficiency (a pivot at or below ``n * eps * column_norm``, or a
    column with no pivot row left) switches solves to a minimum-norm fallback
    and sets :attr:`rank_flag`.
    """

    def __init__(self, A: SparseMatrix, k: int, pattern):
        if A.nrows != A.ncols:
            raise ValueError("column least squares expects a square matrix")
        if not (0 <= k < A.ncols):
            raise ValueError("column index out of range")
        pattern = ColumnPattern.coerce(pattern)
        if len(pattern) == 0:
            raise ValueError("initial pattern must be non-empty")
        self._A = A
        self.k = int(k)
        self._factor(pattern)
        self._solve()

    # ------------------------------------------------------------------
    @property
    def support(self) -> np.ndarray:
        """Pattern indices in increasing order, aligned with :attr:`solution`."""
        return self._pattern.indices

    @property
    def rows(self) -> ColumnPattern:
        return self._rows

    @property
    def solution(self) -> np.ndarray:
        """Coefficients aligned with :attr:`support`."""
        return self._solution.copy()

    def solution_vector(self) -> SparseVector:
        return SparseVector(self._A.nrows, self.support, self._solution)

    # ------------------------------------------------------------------
    def augment(self, new_indices) -> "ColumnLeastSquares":
        """Grow the pattern by ``new_indices`` (disjoint from it) and re-solve."""
        new_indices = ColumnPattern.coerce(new_indices)
        if len(new_indices) == 0:
            return self
        if np.intersect1d(new_indices.indices, self.support).size:
            raise ValueError("augment indices must be disjoint from the pattern")
        self._factor(ColumnPattern(np.union1d(self.support, new_indices.indices)))
        self._solve()
        return self

    def shrink(self, removed) -> "ColumnLeastSquares":
        """Remove pattern indices; factors are rebuilt, values are kept.

        The surviving coefficients keep their current values (no re-solve);
        :attr:`residual_norm` is recomputed for the kept values.
        """
        removed = ColumnPattern.coerce(removed)
        if len(removed) == 0:
            return self
        support = self.support
        if not np.isin(removed.indices, support).all():
            raise ValueError("can only remove indices present in the pattern")
        keep = ~np.isin(support, removed.indices)
        if not keep.any():
            raise ValueError("cannot remove the entire pattern")
        self._factor(ColumnPattern(support[keep]))
        self._solution = self._solution[keep]
        self._set_residual()
        return self

    # ------------------------------------------------------------------
    def _factor(self, pattern: ColumnPattern):
        self._pattern = pattern
        self._block, self._rows = gather_submatrix(self._A, pattern, extra_rows=(self.k,))
        self._rhs = (self._rows.indices == self.k).astype(np.float64)
        self._Q, self._R = np.linalg.qr(self._block)
        pivots = np.abs(np.diagonal(self._R))
        norms = np.linalg.norm(self._block, axis=0)
        # with more columns than rows the trailing columns have no pivot row
        self.rank_flag = pivots.size < norms.size or bool(
            np.any(pivots <= self._A.nrows * _EPS * norms)
        )

    def _solve(self):
        if self.rank_flag:
            self._solution, *_ = np.linalg.lstsq(self._block, self._rhs, rcond=None)
        else:
            qtb = self._Q[np.searchsorted(self._rows.indices, self.k)]
            self._solution = sla.solve_triangular(self._R, qtb, check_finite=False)
        self._set_residual()

    def _set_residual(self):
        self.residual_norm = float(np.linalg.norm(self._block @ self._solution - self._rhs))

"""Property tests: pattern growth from sparse power vectors against the dense
reference it replaced (a dense length-n power vector plus a structural power
iteration on |A| that detects stalling), on small matrices with small-integer
entries (exact cancellation), block-diagonal (reducible) structure and zero
columns; and the dropping builder against a dense reference of the whole
drop path (dense ``lstsq`` solves, thresholds, guard, shrink, tolerances)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saiprec.core import SparseMatrix
from saiprec.lsq import ColumnLeastSquares
from saiprec.psai import SaiParams, bpsai_column, psai_tol_column

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=500)


class DensePowerPattern:
    """Reference: support growth of a_k^(l+1) = A a_k^l with dense vectors.

    A structural closure (powers of |A| applied to the support, immune to
    cancellation) sets ``exhausted`` once no index can ever be new again.
    """

    def __init__(self, A: SparseMatrix, k: int):
        self._A = A.to_scipy()
        self._A_abs = abs(self._A)
        n = A.nrows
        self._vec = np.zeros(n)
        self._vec[k] = 1.0
        self._cum = np.zeros(n, dtype=bool)
        self._cum[k] = True
        self._struct = self._vec.copy()
        self._struct_cum = self._cum.copy()
        self.exhausted = False

    def advance(self) -> np.ndarray:
        dense = self._A @ self._vec
        peak = np.max(np.abs(dense))
        if peak > 0.0:
            dense /= peak
        self._vec = dense
        support = np.nonzero(dense)[0]
        new = support[~self._cum[support]]
        self._cum[new] = True

        struct_next = (self._A_abs @ self._struct) > 0.0
        grew = bool(np.any(struct_next & ~self._struct_cum))
        self._struct = struct_next.astype(np.float64)
        self._struct_cum |= struct_next
        if not grew and np.array_equal(self._struct_cum, self._cum):
            self.exhausted = True
        return new


def dense_reference_column(A: SparseMatrix, k: int, params: SaiParams):
    """The no-dropping column loop driven by :class:`DensePowerPattern`;
    also returns the number of loops that added no index."""
    state = ColumnLeastSquares(A, k, [k])
    power = DensePowerPattern(A, k)
    l = idle = 0
    stalled = False
    while state.residual_norm > params.epsilon and l < params.l_max:
        new = power.advance()
        if power.exhausted and new.size == 0:
            stalled = True
            break
        l += 1
        if new.size:
            state.augment(new)
        else:
            idle += 1
    return (state.support, state.solution), l, stalled, idle


@st.composite
def matrices(draw):
    n = draw(st.integers(2, 8))
    entries = draw(st.lists(st.sampled_from([-1, 0, 1]),
                            min_size=n * n, max_size=n * n))
    dense = np.array(entries, dtype=np.float64).reshape(n, n)
    cut = draw(st.integers(0, n - 1))
    if cut:  # two diagonal blocks: reducible
        dense[:cut, cut:] = 0.0
        dense[cut:, :cut] = 0.0
    zero = draw(st.sets(st.integers(0, n - 1), max_size=2))
    dense[:, sorted(zero)] = 0.0
    return dense


def test_column_growth_matches_dense_reference():
    stalled_after_growing = []
    idle_loops = []

    @SETTINGS
    @given(dense=matrices(), data=st.data())
    def check(dense, data):
        n = dense.shape[0]
        A = SparseMatrix.from_dense(dense)
        k = data.draw(st.integers(0, n - 1))
        params = SaiParams(epsilon=data.draw(st.sampled_from([0.05, 0.2])),
                           l_max=data.draw(st.integers(1, 8)), drop_mode="none")
        vec, rec = bpsai_column(A, k, params)
        ref_vec, loops, stalled, idle = dense_reference_column(A, k, params)
        assert (rec.loops_used, rec.stalled) == (loops, stalled)
        assert np.array_equal(vec[0], ref_vec[0])
        assert vec[1].tobytes() == ref_vec[1].tobytes()
        stalled_after_growing.append(stalled and loops > 0)
        idle_loops.append(idle)

    check()
    # both stalling after growth and a loop that adds nothing (cancellation)
    # without stalling were exercised
    assert any(stalled_after_growing) and any(idle_loops)


# a decision whose margin is within this relative distance of its cut (or
# within the value tolerance) may go either way under rounding
NEAR_CUT = 1e-10
VALUE_RTOL = 1e-12


class NearCut(Exception):
    """A drop-path decision fell within rounding distance of its cut."""


def _near(margin: float, cut: float, scale: float) -> bool:
    return abs(margin) <= max(NEAR_CUT * abs(cut), VALUE_RTOL * scale)


def dense_drop_reference(dense: np.ndarray, k: int, params: SaiParams):
    """The dropping column loop on dense arrays: every pattern is solved with
    ``np.linalg.lstsq`` on its rows, the threshold is eps / (nnz * ||A||_1)
    times ``drop_scale`` (or the fixed ``tol``), entries at or below it are
    dropped without a re-solve, the guard keeps the largest entry, and
    dropped indices never re-enter. Raises :class:`NearCut` when a decision
    is within rounding distance of its cut. Returns the support, the values,
    the record fields compared, both residuals and the number of entries
    dropped."""
    n = dense.shape[0]
    a_one_norm = float(np.abs(dense).sum(axis=0).max())
    scale_floor = 1.0 / a_one_norm if a_one_norm > 0.0 else 1.0
    eps = params.epsilon

    def block_of(support):
        """A(R, S): the rows nonzero in the pattern's columns, and row k."""
        rows = np.union1d(np.flatnonzero(np.any(dense[:, support], axis=1)), [k])
        return dense[np.ix_(rows, support)], (rows == k).astype(np.float64)

    def solve(support):
        block, rhs = block_of(support)
        values = np.linalg.lstsq(block, rhs, rcond=None)[0]
        return values, float(np.linalg.norm(block @ values - rhs))

    def keeps_going(r):
        if _near(r - eps, eps, 0.0):
            raise NearCut("residual against epsilon")
        return r > eps

    power = DensePowerPattern(SparseMatrix.from_dense(dense), k)
    support = np.array([k])
    values, r_solve = solve(support)
    l, stalled, guard, tols, dropped = 0, False, False, [], 0
    while keeps_going(r_solve) and l < params.l_max:
        new = power.advance()
        if power.exhausted and new.size == 0:
            stalled = True
            break
        l += 1
        if new.size == 0:
            continue
        support = np.union1d(support, new)
        values, r_solve = solve(support)
        tols.append(eps / (support.size * a_one_norm))
        threshold = params.drop_scale * tols[-1] if params.drop_mode == "adaptive" else params.tol
        magnitude = np.abs(values)
        scale = max(np.linalg.norm(values), scale_floor)
        if any(_near(m - threshold, threshold, scale) for m in magnitude):
            raise NearCut("coefficient against the drop threshold")
        small = magnitude <= threshold
        if small.all():
            top = np.sort(magnitude)[::-1]
            if top.size > 1 and _near(top[0] - top[1], top[0], scale):
                raise NearCut("guard between two magnitudes")
            small[int(np.argmax(magnitude))] = False
            guard = True
        support, values = support[~small], values[~small]
        dropped += int(small.sum())
    block, rhs = block_of(support)
    post = float(np.linalg.norm(block @ values - rhs))
    pivots = np.abs(np.diagonal(np.linalg.qr(block, mode="r")))
    cuts = n * np.finfo(np.float64).eps * np.linalg.norm(block, axis=0)
    if any(_near(p - c, c, 0.0) for p, c in zip(pivots, cuts) if c > 0.0):
        raise NearCut("pivot against the rank cut")
    rank_flag = pivots.size < support.size or bool(np.any(pivots <= cuts[:pivots.size]))
    record = dict(loops_used=l, stalled=stalled, guard_flag=guard, rank_flag=rank_flag,
                  tol_min=min(tols) if tols else np.nan, tol_max=max(tols) if tols else np.nan)
    return support, values, record, r_solve, post, dropped


@st.composite
def drop_params(draw):
    mode = draw(st.sampled_from(["adaptive", "fixed"]))
    return SaiParams(
        epsilon=draw(st.sampled_from([0.05, 0.2, 0.4])),
        l_max=draw(st.integers(1, 8)),
        drop_mode=mode,
        drop_scale=draw(st.sampled_from([0.5, 1.0, 4.0, 30.0, 300.0])),
        tol=draw(st.sampled_from([1e-3, 0.05, 0.25, 0.5, 2.0])) if mode == "fixed" else None,
    )


def test_drop_path_matches_dense_reference():
    outcomes = []

    @SETTINGS
    @given(dense=matrices(), params=drop_params(), data=st.data())
    def check(dense, params, data):
        n = dense.shape[0]
        k = data.draw(st.integers(0, n - 1))
        try:
            ref_support, ref_values, ref_record, ref_pre, ref_post, dropped = \
                dense_drop_reference(dense, k, params)
        except NearCut:
            outcomes.append("near-cut")
            return
        A = SparseMatrix.from_dense(dense)
        a_one_norm = A.one_norm()
        (support, values), rec = psai_tol_column(A, k, params, a_one_norm)
        np.testing.assert_equal({f: getattr(rec, f) for f in ref_record}, ref_record)
        assert (rec.pre_drop_residual <= params.epsilon) == (ref_pre <= params.epsilon)
        assert np.array_equal(support, ref_support)
        scale = max(np.linalg.norm(ref_values), 1.0 / a_one_norm if a_one_norm else 1.0)
        assert np.linalg.norm(values - ref_values) <= VALUE_RTOL * scale
        assert abs(rec.pre_drop_residual - ref_pre) <= VALUE_RTOL
        assert abs(rec.post_drop_residual - ref_post) <= VALUE_RTOL
        outcomes.append("guard" if rec.guard_flag else "dropped" if dropped else "compared")

    check()
    # the drop path and the guard were both exercised, and near-cut examples
    # stay a minority
    assert "guard" in outcomes and "dropped" in outcomes
    assert outcomes.count("near-cut") < len(outcomes) // 4

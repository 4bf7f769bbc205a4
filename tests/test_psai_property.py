"""Property tests: pattern growth from sparse power vectors against the dense
reference it replaced (a dense length-n power vector plus a structural power
iteration on |A| that detects stalling), on small matrices with small-integer
entries (exact cancellation), block-diagonal (reducible) structure and zero
columns."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saiprec.core import SparseMatrix
from saiprec.lsq import ColumnLeastSquares
from saiprec.psai import SaiParams, _power_step, bpsai_column

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
    return state.solution_vector(), l, stalled, idle


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


@SETTINGS
@given(dense=matrices(), data=st.data())
def test_power_step_matches_scipy_product(dense, data):
    n = dense.shape[0]
    A = SparseMatrix.from_dense(dense)
    idx = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    # small integers cancel exactly; the extreme magnitudes make entries
    # underflow once divided by the peak
    vals = np.array(data.draw(st.lists(
        st.sampled_from([-2.0, -1.0, 1.0, 3.0, 0.5, 1e300, -1e300, 5e-324, 1e-310]),
        min_size=idx.size, max_size=idx.size)))
    got_idx, got_vals = _power_step(A, idx, vals)

    v = np.zeros(n)
    v[idx] = vals
    y = A.to_scipy() @ v
    peak = np.max(np.abs(y))
    if peak > 0.0:
        y /= peak
    support = np.nonzero(y)[0]
    assert np.array_equal(got_idx, support)
    assert got_vals.tobytes() == y[support].tobytes()


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
        assert np.array_equal(vec.indices, ref_vec.indices)
        assert vec.values.tobytes() == ref_vec.values.tobytes()
        stalled_after_growing.append(stalled and loops > 0)
        idle_loops.append(idle)

    check()
    # both stalling after growth and a loop that adds nothing (cancellation)
    # without stalling were exercised
    assert any(stalled_after_growing) and any(idle_loops)

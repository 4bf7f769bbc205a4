"""Property test: ColumnLeastSquares against a dense lstsq oracle over random
sequences of augment and shrink, on matrices with a duplicated column and a
structurally zero column (so rank-deficient blocks occur)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saiprec.core import SparseMatrix, gather_submatrix
from saiprec.lsq import ColumnLeastSquares

TOL = 1e-10


@st.composite
def problems(draw):
    n = draw(st.integers(3, 7))
    entries = draw(
        st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n)
    )
    dense = np.array(entries, dtype=np.float64).reshape(n, n)
    dense[np.diag_indices(n)] = 10.0 * n  # every other column set independent
    dup, src, zero = draw(st.permutations(range(n)))[:3]
    dense[:, dup] = dense[:, src]
    dense[:, zero] = 0.0
    k = draw(st.integers(0, n - 1))
    return dense, k


def dense_residual(dense, k, support, values):
    e = np.zeros(dense.shape[0])
    e[k] = 1.0
    return float(np.linalg.norm(dense[:, support] @ values - e))


def subset(data, pool, max_size):
    return sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=max_size)))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(problem=problems(), data=st.data())
def test_augment_and_shrink_match_dense_oracle(problem, data):
    dense, k = problem
    n = dense.shape[0]
    e = np.zeros(n)
    e[k] = 1.0
    A = SparseMatrix.from_dense(dense)
    state = ColumnLeastSquares(A, k, subset(data, list(range(n)), n))
    steps = data.draw(st.integers(1, 6))
    for _ in range(steps):
        support = state.support.tolist()
        assert support == sorted(support)
        rest = [j for j in range(n) if j not in support]
        grow = rest and (len(support) == 1 or data.draw(st.booleans()))
        if grow:
            state.augment(subset(data, rest, len(rest)))
            oracle, *_ = np.linalg.lstsq(dense[:, state.support], e, rcond=None)
            assert np.allclose(state.solution, oracle, atol=TOL, rtol=0)
            assert abs(state.residual_norm - dense_residual(dense, k, state.support, oracle)) <= TOL
        else:
            before = dict(zip(support, state.solution.tolist()))
            state.shrink(subset(data, support, len(support) - 1))
            kept = state.solution
            assert kept.tolist() == [before[j] for j in state.support.tolist()]
            assert abs(state.residual_norm - dense_residual(dense, k, state.support, kept)) <= TOL


def test_lazy_factoring_matches_fresh_state():
    """A shrink regathers without factoring, so rank_flag is computed on
    demand; after every step it must be the flag of a fresh state on the same
    pattern, and after every augment the solution must be its bits."""
    flagged_after_shrink = []

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(problem=problems(), data=st.data())
    def check(problem, data):
        dense, k = problem
        n = dense.shape[0]
        A = SparseMatrix.from_dense(dense)
        state = ColumnLeastSquares(A, k, subset(data, list(range(n)), n))
        for _ in range(data.draw(st.integers(1, 6))):
            support = state.support.tolist()
            rest = [j for j in range(n) if j not in support]
            grow = rest and (len(support) == 1 or data.draw(st.booleans()))
            if grow:
                state.augment(subset(data, rest, len(rest)))
            else:
                state.shrink(subset(data, support, len(support) - 1))
            fresh = ColumnLeastSquares(A, k, state.support)
            assert state.rank_flag == fresh.rank_flag
            if grow:
                assert state.solution.tobytes() == fresh.solution.tobytes()
            else:
                flagged_after_shrink.append(state.rank_flag)

    check()
    # both outcomes of the on-demand flag were exercised
    assert any(flagged_after_shrink) and not all(flagged_after_shrink)


def test_shrink_block_matches_regather():
    """A shrink slices the block it holds; its rows must be those of
    gather_submatrix on the kept pattern, and its residual norm the residual of
    the kept solution on that regathered block, bit for bit."""
    lost_rows = []

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(problem=problems(), data=st.data())
    def check(problem, data):
        dense, k = problem
        n = dense.shape[0]
        A = SparseMatrix.from_dense(dense)
        state = ColumnLeastSquares(A, k, subset(data, list(range(n)), n))
        for _ in range(data.draw(st.integers(1, 6))):
            support = state.support.tolist()
            rest = [j for j in range(n) if j not in support]
            if rest and (len(support) == 1 or data.draw(st.booleans())):
                state.augment(subset(data, rest, len(rest)))
                continue
            before = state.rows.size
            state.shrink(subset(data, support, len(support) - 1))
            block, rows = gather_submatrix(A, state.support, [k])
            assert state.rows.tolist() == rows.tolist()
            rhs = (rows == k).astype(np.float64)
            assert state.residual_norm == float(np.linalg.norm(block @ state.solution - rhs))
            lost_rows.append(state.rows.size < before)

    check()
    # shrinks that leave rows empty, and shrinks that do not, both occurred
    assert any(lost_rows) and not all(lost_rows)

import numpy as np
import pytest

from conftest import random_sparse, random_well_conditioned
from saiprec.core import SparseMatrix, gather_submatrix
from saiprec.lsq import ColumnLeastSquares


def normal_equations_oracle(A: SparseMatrix, k: int, pattern):
    """Independent dense LS solve on A(:, S) via normal equations / lstsq."""
    dense = A.to_dense()
    cols = np.asarray(sorted(pattern), dtype=np.int64)
    block = dense[:, cols]
    e = np.zeros(A.nrows)
    e[k] = 1.0
    sol, *_ = np.linalg.lstsq(block, e, rcond=None)
    residual = np.linalg.norm(block @ sol - e)
    return cols, sol, residual


def state_dense_solution(state: ColumnLeastSquares, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[state.support] = state.solution
    return out


class TestInit:
    def test_identity(self):
        state = ColumnLeastSquares(SparseMatrix.identity(3), 0, [0])
        assert state.solution == pytest.approx([1.0])
        assert state.residual_norm == pytest.approx(0.0, abs=1e-15)

    def test_diagonal(self):
        A = SparseMatrix.from_dense(np.diag([2.0, 4.0]))
        state = ColumnLeastSquares(A, 1, [1])
        assert state.solution == pytest.approx([0.25])
        assert state.residual_norm == pytest.approx(0.0, abs=1e-15)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            A = random_well_conditioned(rng, 6, density=0.8)
            k = int(rng.integers(6))
            S = sorted(rng.choice(6, size=3, replace=False).tolist())
            cols, sol, res = normal_equations_oracle(A, k, S)
            state = ColumnLeastSquares(A, k, S)
            got = state_dense_solution(state, 6)
            expected = np.zeros(6)
            expected[cols] = sol
            assert np.allclose(got, expected, atol=1e-10, rtol=0)
            assert state.residual_norm == pytest.approx(res, abs=1e-10)

    def test_full_height_residual_includes_row_k(self):
        # pattern misses every column touching row k: residual must still see
        # the unmatched unit entry of e_k
        A = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]])
        state = ColumnLeastSquares(A, 1, [0])
        assert state.residual_norm == pytest.approx(1.0)

    def test_rank_deficient_falls_back(self):
        dense = np.zeros((3, 3))
        dense[:, 0] = [1.0, 1.0, 0.0]
        dense[:, 1] = [2.0, 2.0, 0.0]  # multiple of column 0
        dense[2, 2] = 1.0
        A = SparseMatrix.from_dense(dense)
        state = ColumnLeastSquares(A, 0, [0, 1])
        assert state.rank_flag
        _, _, res = normal_equations_oracle(A, 0, [0, 1])
        assert state.residual_norm == pytest.approx(res, abs=1e-12)


class TestAugment:
    def test_zero_contribution_index(self):
        # new column is zero on the current row support and on e_k's support
        dense = np.zeros((3, 3))
        dense[0, 0] = 1.0
        dense[2, 1] = 1.0
        dense[1, 2] = 1.0
        A = SparseMatrix.from_dense(dense)
        state = ColumnLeastSquares(A, 0, [0])
        before = state.residual_norm
        state.augment([1])
        assert state.residual_norm == pytest.approx(before, abs=1e-14)

    def test_identity_grow(self):
        state = ColumnLeastSquares(SparseMatrix.identity(2), 0, [0])
        state.augment([1])
        assert state.residual_norm == pytest.approx(0.0, abs=1e-15)
        sol = state_dense_solution(state, 2)
        assert sol == pytest.approx([1.0, 0.0])

    def test_matches_fresh_factorization(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            A = random_well_conditioned(rng, 8, density=0.6)
            k = int(rng.integers(8))
            base = sorted(rng.choice(8, size=2, replace=False).tolist())
            rest = [j for j in range(8) if j not in base]
            extra = sorted(rng.choice(rest, size=3, replace=False).tolist())
            state = ColumnLeastSquares(A, k, base)
            state.augment(extra)
            fresh = ColumnLeastSquares(A, k, sorted(base + extra))
            assert np.allclose(
                state_dense_solution(state, 8), state_dense_solution(fresh, 8),
                atol=1e-10, rtol=0,
            )
            assert state.residual_norm == pytest.approx(fresh.residual_norm, abs=1e-10)

    def test_monotone_residual(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            A = random_sparse(rng, 9, 0.4, diag_boost=2.0)
            k = int(rng.integers(9))
            state = ColumnLeastSquares(A, k, [k])
            prev = state.residual_norm
            remaining = [j for j in range(9) if j != k]
            rng.shuffle(remaining)
            for j in remaining:
                state.augment([j])
                tol = 1e-12 * (1.0 + A.one_norm())
                assert state.residual_norm <= prev + tol
                prev = state.residual_norm

    def test_index_already_in_pattern_rejected(self):
        state = ColumnLeastSquares(SparseMatrix.identity(4), 0, [0, 2])
        with pytest.raises(ValueError, match="disjoint"):
            state.augment([1, 2])

    @pytest.mark.parametrize("bad", [4, 9])
    def test_index_out_of_range_rejected(self, bad):
        state = ColumnLeastSquares(SparseMatrix.identity(4), 0, [0])
        with pytest.raises(ValueError, match="out of range"):
            state.augment([1, bad])

    def test_full_pattern_exact(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            A = random_well_conditioned(rng, 7, density=0.7)
            k = int(rng.integers(7))
            state = ColumnLeastSquares(A, k, list(range(7)))
            assert state.residual_norm <= 1e-10


class TestShrink:
    def test_remove_empty_is_identity(self):
        A = SparseMatrix.identity(3)
        state = ColumnLeastSquares(A, 0, [0, 1])
        before = state.solution
        state.shrink([])
        assert np.array_equal(state.solution, before)

    def test_remove_zero_coefficient_keeps_residual(self):
        state = ColumnLeastSquares(SparseMatrix.identity(3), 0, [0, 1])
        assert state.solution[1] == pytest.approx(0.0, abs=1e-15)
        before = state.residual_norm
        state.shrink([1])
        assert state.residual_norm == pytest.approx(before, abs=1e-14)

    def test_matches_fresh_init_after_resolve(self):
        rng = np.random.default_rng(63)
        for _ in range(15):
            A = random_well_conditioned(rng, 6, density=0.7)
            k = int(rng.integers(6))
            state = ColumnLeastSquares(A, k, [0, 1, 2])
            state.shrink([1])
            # shrink keeps stale values; the next solve (via a no-op style
            # rebuild through fresh init) must match fresh factorization
            fresh = ColumnLeastSquares(A, k, [0, 2])
            state._solve()
            assert np.allclose(
                state_dense_solution(state, 6), state_dense_solution(fresh, 6),
                atol=1e-10, rtol=0,
            )
            assert state.residual_norm == pytest.approx(fresh.residual_norm, abs=1e-10)

    def test_stale_values_until_resolve(self):
        rng = np.random.default_rng(64)
        A = random_well_conditioned(rng, 6, density=0.8)
        state = ColumnLeastSquares(A, 2, [0, 1, 2, 3])
        kept = {c: v for c, v in zip(state.support.tolist(), state.solution.tolist())}
        state.shrink([1])
        for c, v in zip(state.support.tolist(), state.solution.tolist()):
            assert v == kept[c]

    def test_index_not_in_pattern_rejected(self):
        state = ColumnLeastSquares(SparseMatrix.identity(4), 0, [0, 1])
        with pytest.raises(ValueError, match="present in the pattern"):
            state.shrink([1, 3])

    def test_duplicate_indices_remove_once(self):
        rng = np.random.default_rng(65)
        A = random_well_conditioned(rng, 6, density=0.8)
        once = ColumnLeastSquares(A, 2, [0, 1, 2, 3]).shrink([1])
        twice = ColumnLeastSquares(A, 2, [0, 1, 2, 3]).shrink([1, 1])
        assert np.array_equal(twice.support, once.support)
        assert twice.solution.tobytes() == once.solution.tobytes()
        assert twice.residual_norm == once.residual_norm
        assert twice.rank_flag == once.rank_flag

    def test_cannot_remove_all(self):
        state = ColumnLeastSquares(SparseMatrix.identity(2), 0, [0])
        with pytest.raises(ValueError):
            state.shrink([0])


class TestGrowthSequences:
    def test_incremental_matches_fresh_200(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 200:
            n = int(rng.integers(4, 13))
            A = random_well_conditioned(rng, n, density=0.55)
            k = int(rng.integers(n))
            order = rng.permutation(n).tolist()
            first = max(1, int(rng.integers(1, n)))
            state = ColumnLeastSquares(A, k, sorted(order[:first]))
            taken = order[:first]
            pos = first
            while pos < n:
                step = int(rng.integers(1, n - pos + 1))
                chunk = order[pos : pos + step]
                state.augment(sorted(chunk))
                taken += chunk
                pos += step
                fresh = ColumnLeastSquares(A, k, sorted(taken))
                got = state_dense_solution(state, n)
                want = state_dense_solution(fresh, n)
                assert np.allclose(got, want, atol=1e-10, rtol=0)
                assert abs(state.residual_norm - fresh.residual_norm) <= 1e-10
                checked += 1


class TestIndexArguments:
    """Index arguments are sorted, deduplicated, range-checked and copied."""

    def test_unsorted_duplicates_match_sorted_state(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            A = random_sparse(rng, 6, 0.5, diag_boost=1.0)
            messy = ColumnLeastSquares(A, 1, [3, 1, 1])
            clean = ColumnLeastSquares(A, 1, [1, 3])
            assert messy.support.tobytes() == clean.support.tobytes()
            assert messy.solution.tobytes() == clean.solution.tobytes()
            assert messy.residual_norm == clean.residual_norm

    @pytest.mark.parametrize("bad", [-1, 4, 9])
    def test_out_of_range_rejected(self, bad):
        A = SparseMatrix.identity(4)
        with pytest.raises(ValueError, match="out of range"):
            ColumnLeastSquares(A, 0, [0, bad])
        with pytest.raises(ValueError, match="out of range"):
            ColumnLeastSquares(A, 0, [0]).augment([1, bad])
        with pytest.raises(ValueError, match="out of range"):
            gather_submatrix(A, [0, bad])

    @pytest.mark.parametrize("k", [1.7, 1.0, True, np.float64(1.0)],
                             ids=["1.7", "1.0", "bool", "float64"])
    def test_non_integral_column_index_rejected(self, k):
        with pytest.raises(TypeError, match="column index must be an integer"):
            ColumnLeastSquares(SparseMatrix.identity(3), k, [0, 1])

    def test_numpy_integer_column_index_is_taken_as_int(self):
        state = ColumnLeastSquares(SparseMatrix.identity(3), np.int32(1), [0, 1])
        assert type(state.k) is int and state.k == 1
        assert state.solution.tolist() == [0.0, 1.0]

    def test_caller_arrays_stay_writable_and_detached(self):
        pattern, new, removed = np.array([0, 2]), np.array([3]), np.array([2])
        state = ColumnLeastSquares(SparseMatrix.identity(4), 0, pattern)
        state.augment(new)
        state.shrink(removed)
        assert pattern.flags.writeable and new.flags.writeable and removed.flags.writeable
        pattern[0], new[0], removed[0] = 1, 1, 1
        assert state.support.tolist() == [0, 3]
        assert not state.support.flags.writeable

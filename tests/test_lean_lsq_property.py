"""Property tests for the lean least-squares state: the cached column norms of
A are the norms the rank test took from each gathered block, a pickled matrix
arrives without the cache, and the rank flag after a shrink is that of a fresh
factorization even where rounding flags a block that was not flagged before."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgeqrf

from conftest import random_sparse
from saiprec.core import SparseMatrix, gather_submatrix
from saiprec.lsq import ColumnLeastSquares
from test_psai_property import matrices

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)
SCALES = (0, 511, 600)  # 2**511: some squares overflow; 2**600: all do
EPS = np.finfo(np.float64).eps


def block_norms(block: np.ndarray) -> np.ndarray:
    """Reference: the 2-norms of a gathered block's columns as the rank test
    took them from the block: squares summed over its rows (one row after the
    other when it has two or more columns). A column whose squares overflow is
    retaken from the column scaled by an exact power of two, summed by a plain
    loop in row order."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(block * block, axis=0))
    for j in np.flatnonzero(np.isinf(norms)):
        _, exponent = np.frexp(np.max(np.abs(block[:, j])))
        total = 0.0
        for x in np.ldexp(block[:, j], -exponent).tolist():
            total += x * x
        norms[j] = np.ldexp(math.sqrt(total), exponent)
    return norms


@st.composite
def scaled_matrices(draw):
    """A ``matrices()`` example, its entries either kept (exact sums, exactly
    dependent columns) or weighted by reals from a drawn seed (sums that
    round), then scaled by one of :data:`SCALES`."""
    dense = draw(matrices())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dense = dense * rng.uniform(0.5, 2.0, dense.shape)
    return SparseMatrix.from_dense(np.ldexp(dense, draw(st.sampled_from(SCALES))))


def subset(data, pool, max_size):
    return sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=max_size)))


@SETTINGS
@given(A=scaled_matrices(), data=st.data())
def test_cached_norms_match_gathered_block(A, data):
    n = A.ncols
    S = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2)))
    block, _ = gather_submatrix(A, S)
    assert A.column_norms()[S].tobytes() == block_norms(block).tobytes()


def test_cached_norms_match_long_columns():
    # columns of about 30 entries, where the order of the sum shows
    rng = np.random.default_rng(3)
    for exponent in SCALES:
        A = SparseMatrix.from_dense(np.ldexp(random_sparse(rng, 60, 0.5).to_dense(), exponent))
        for j in range(A.ncols - 1):
            block, _ = gather_submatrix(A, [j, j + 1])
            assert A.column_norms()[j:j + 2].tobytes() == block_norms(block).tobytes()


@SETTINGS
@given(A=scaled_matrices())
def test_pickled_matrix_arrives_without_norm_cache(A):
    norms = A.column_norms()
    assert A.column_norms() is norms and not norms.flags.writeable
    B = pickle.loads(pickle.dumps(A))
    assert B._norm_cache is None
    assert B.column_norms().tobytes() == norms.tobytes()


def near_threshold_shrink(seed: int):
    """A random n x n matrix (n in 4..8) whose column c lies at about
    (0.2..5) * n * eps * ||base|| from span(a, b), where base is a random
    combination of columns a and b; a pattern holding a, b and c with some
    other columns; and the indices a shrink removes: some of the pattern
    other than c."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    dense = rng.standard_normal((n, n))
    a, b, c = rng.choice(n, 3, replace=False)
    base = dense[:, [a, b]] @ rng.standard_normal(2)
    u = rng.standard_normal(n)
    u -= dense[:, [a, b]] @ np.linalg.lstsq(dense[:, [a, b]], u, rcond=None)[0]
    dense[:, c] = base + rng.uniform(0.2, 5.0) * n * EPS * np.linalg.norm(base) * u / np.linalg.norm(u)
    others = [j for j in range(n) if j not in (a, b, c)]
    pattern = sorted([a, b, c] + rng.choice(others, int(rng.integers(0, len(others) + 1)),
                                            replace=False).tolist())
    removed = rng.choice([j for j in pattern if j != c], int(rng.integers(1, len(pattern))),
                         replace=False).tolist()
    return SparseMatrix.from_dense(dense), int(rng.integers(n)), pattern, sorted(removed)


# seeds among the first 40,000 whose unflagged block is flagged after the
# shrink: removing columns cannot lower a pivot in exact arithmetic, but
# rounding near the threshold can, so the flag must be recomputed
FLIPPING_SEEDS = (10571, 20026, 25256, 26642, 31032)


def check_flag_after_shrink(seed: int) -> tuple:
    """The flags before and after the shrink of :func:`near_threshold_shrink`;
    the one after must be that of a fresh state on the kept pattern."""
    A, k, pattern, removed = near_threshold_shrink(seed)
    state = ColumnLeastSquares(A, k, pattern)
    before = state.rank_flag
    state.shrink(removed)
    assert state.rank_flag == ColumnLeastSquares(A, k, state.support).rank_flag
    assert state.rank_flag == state._deficient(dgeqrf(state._block)[0])
    return before, state.rank_flag


@pytest.mark.parametrize("seed", FLIPPING_SEEDS)
def test_shrink_can_flag_an_unflagged_block(seed):
    assert check_flag_after_shrink(seed) == (False, True)


def test_flag_after_shrink_near_the_threshold_matches_fresh_state():
    flags = [check_flag_after_shrink(seed) for seed in range(300)]
    # blocks on both sides of the threshold occurred, before and after
    assert {before for before, _ in flags} == {after for _, after in flags} == {False, True}

"""Property tests of the one-call column read: ``SparseMatrix.column`` on an
index array against the concatenated single-column reads, ``gather_submatrix``
against a dense reference, ``_gather_blocks`` against one-set gathers, and
the builders reading A's columns with one ``SparseMatrix.column`` call per
block gather."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_block_kernel_property import build_params
from test_psai_property import SETTINGS, matrices

from saiprec import core, lsq, psai
from saiprec.core import SparseMatrix, _gather_blocks, gather_submatrix
from saiprec.psai import _BLOCK_COLUMNS, build_preconditioner
from saiprec.static import static_build

PROPERTY = settings(SETTINGS, max_examples=200)


@PROPERTY
@given(dense=matrices(), data=st.data())
def test_index_array_read_equals_concatenated_column_reads(dense, data):
    n = dense.shape[0]
    A = SparseMatrix.from_dense(dense)
    # unsorted, repeated and empty index lists; zero columns of dense are empty
    cols = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint16]))
    idx, vals = A.column(np.array(cols, dtype=dtype))
    singles = [A.column(k) for k in cols]
    want_idx = np.concatenate([A.row_idx[:0]] + [i for i, _ in singles])
    want_vals = np.concatenate([A.values[:0]] + [v for _, v in singles])
    assert idx.dtype == want_idx.dtype and idx.tobytes() == want_idx.tobytes()
    assert vals.dtype == want_vals.dtype and vals.tobytes() == want_vals.tobytes()


@PROPERTY
@given(dense=matrices(), data=st.data())
def test_gather_matches_dense_reference(dense, data):
    n = dense.shape[0]
    A = SparseMatrix.from_dense(dense)
    S = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    extra = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    J = sorted(set(S))
    R = sorted(set(np.flatnonzero(dense[:, J].any(axis=1)).tolist()) | set(extra))
    block, rows = gather_submatrix(A, S, extra)
    assert rows.tolist() == R
    assert block.tobytes() == dense[np.ix_(R, J)].tobytes()


def test_gather_blocks_match_one_set_gathers():
    """``_gather_blocks`` gives each set the block and rows that
    ``gather_submatrix(A, S, [k])`` gives it, bit for bit."""
    seen = set()

    @PROPERTY
    @given(dense=matrices(), data=st.data())
    def check(dense, data):
        n = dense.shape[0]
        A = SparseMatrix.from_dense(dense)
        index_set = st.sets(st.integers(0, n - 1), min_size=1).map(sorted)
        sets = data.draw(st.lists(index_set, min_size=1, max_size=5))
        if data.draw(st.booleans()):
            sets.append(sets[0])
        ks = data.draw(st.lists(st.integers(0, n - 1), min_size=len(sets), max_size=len(sets)))
        dtype = data.draw(st.sampled_from([np.int64, np.int32]))
        got = _gather_blocks(A, [np.array(S, dtype=dtype) for S in sets],
                             np.array(ks, dtype=dtype))
        assert len(got) == len(sets)
        for S, k, (block, rows) in zip(sets, ks, got):
            want_block, want_rows = gather_submatrix(A, S, [k])
            assert rows.dtype == want_rows.dtype and rows.tobytes() == want_rows.tobytes()
            assert block.shape == want_block.shape and block.tobytes() == want_block.tobytes()
            seen.add(("zero column", not dense[:, S].any(axis=0).all()))
            seen.add(("k outside the union", not dense[k, S].any()))
            seen.add(("single-column set", len(S) == 1))
        seen.add(("repeated set", any(sets.count(S) > 1 for S in sets)))
        seen.add(("int32 input", dtype is np.int32))

    check()
    for case in ("zero column", "k outside the union", "single-column set", "repeated set",
                 "int32 input"):
        assert (case, True) in seen, case


def column_reads(build, block):
    """Run ``build()`` with blocks of ``block`` columns and count what it
    reads: the ``SparseMatrix.column`` calls made inside each
    ``_gather_blocks`` call, those made outside any, the power-step levels
    that augment at least one column, and the stall tests (the columns a
    level steps that it does not augment)."""
    column, gather = SparseMatrix.column, core._gather_blocks
    augment, power_steps = lsq.ColumnLeastSquares.augment, psai._power_steps
    calls, per_gather, levels, stall_tests = [0], [], [], [0]

    def counted_column(self, k):
        calls[0] += 1
        return column(self, k)

    def counted_gather(*args):
        before = calls[0]
        out = gather(*args)
        per_gather.append(calls[0] - before)
        return out

    def counted_power_steps(A, V):
        levels.append(False)
        stall_tests[0] += V.shape[1]
        return power_steps(A, V)

    def counted_augment(self, *args, **kwargs):
        levels[-1] = True
        stall_tests[0] -= 1
        return augment(self, *args, **kwargs)

    with mock.patch.object(SparseMatrix, "column", counted_column), \
            mock.patch.object(lsq.ColumnLeastSquares, "augment", counted_augment), \
            mock.patch.object(psai, "_power_steps", counted_power_steps), \
            mock.patch.object(psai, "_BLOCK_COLUMNS", block), \
            mock.patch.object(psai, "_gather_blocks", counted_gather), \
            mock.patch.object(lsq, "_gather_blocks", counted_gather):
        build()
    return per_gather, calls[0] - sum(per_gather), sum(levels), stall_tests[0]


def test_builders_read_columns_once_per_gather_level_and_stall_test():
    """A static build reads A's columns once per block of columns; an
    adaptive build once per block for its first solves, once per level that
    augments a column and once per stall test."""
    seen = set()

    @PROPERTY
    @given(dense=matrices(), params=build_params(), block=st.sampled_from([1, 3, _BLOCK_COLUMNS]))
    def check(dense, params, block):
        A = SparseMatrix.from_dense(dense)
        blocks = -(-A.ncols // block)
        per_gather, outside, levels, stall_tests = column_reads(
            lambda: build_preconditioner(A, params), block)
        assert per_gather == [1] * (blocks + levels) and outside == stall_tests
        seen.add(("augmenting level", levels > 0))
        seen.add(("stall test read", stall_tests > 0))
        seen.add(("several blocks", blocks > 1))

        # every pattern column holds its diagonal, so none is empty
        pattern = SparseMatrix.from_dense(np.eye(A.ncols) + np.abs(dense))
        per_gather, outside, _, _ = column_reads(lambda: static_build(A, pattern), block)
        assert per_gather == [1] * blocks and outside == 0

    check()
    for case in ("augmenting level", "stall test read", "several blocks"):
        assert (case, True) in seen, case

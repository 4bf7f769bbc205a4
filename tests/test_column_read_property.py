"""Property tests of the one-call column read: ``SparseMatrix.column`` on an
index array against the concatenated single-column reads, ``gather_submatrix``
against a dense reference, and the builders reading A's columns with one
``SparseMatrix.column`` call per least-squares gather."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_block_kernel_property import build_params
from test_psai_property import SETTINGS, matrices

from saiprec import lsq
from saiprec.core import SparseMatrix, gather_submatrix
from saiprec.psai import build_preconditioner
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


def column_reads(build):
    """Run ``build()`` and return, for each least-squares gather, the number
    of ``SparseMatrix.column`` calls made inside it, and the number of calls
    made outside any gather."""
    column, gather = SparseMatrix.column, lsq._gather
    calls, per_gather = [0], []

    def counted_column(self, k):
        calls[0] += 1
        return column(self, k)

    def counted_gather(*args):
        before = calls[0]
        out = gather(*args)
        per_gather.append(calls[0] - before)
        return out

    with mock.patch.object(SparseMatrix, "column", counted_column), \
            mock.patch.object(lsq, "_gather", counted_gather):
        build()
    return per_gather, calls[0] - sum(per_gather)


def test_builders_read_columns_once_per_gather():
    seen = set()

    @PROPERTY
    @given(dense=matrices(), params=build_params())
    def check(dense, params):
        A = SparseMatrix.from_dense(dense)
        per_gather, outside = column_reads(lambda: build_preconditioner(A, params))
        assert per_gather and set(per_gather) == {1}
        seen.add(("multi-column gather", len(per_gather) > A.ncols))
        seen.add(("stall test read", outside > 0))

        # every pattern column holds its diagonal, so none is empty
        pattern = SparseMatrix.from_dense(np.eye(A.ncols) + np.abs(dense))
        per_gather, outside = column_reads(lambda: static_build(A, pattern))
        assert per_gather == [1] * A.ncols and outside == 0

    check()
    assert ("multi-column gather", True) in seen and ("stall test read", True) in seen

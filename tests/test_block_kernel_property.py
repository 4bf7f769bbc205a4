"""Property tests of the block kernel: the batched power step against the
dense product, column by column, and a whole build against its columns built
one at a time with the per-column entry points."""

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from test_psai_property import SETTINGS, matrices

from saiprec import psai
from saiprec.core import SparseMatrix, assemble_columns
from saiprec.psai import SaiParams, _power_steps, bpsai_column, build_preconditioner, psai_tol_column

# small integers cancel exactly; the extreme magnitudes make entries
# underflow once divided by the peak
EXTREMES = [-2.0, -1.0, 1.0, 3.0, 0.5, 1e300, -1e300, 5e-324, 1e-310]


@SETTINGS
@given(dense=matrices(), data=st.data())
def test_batched_power_step_matches_dense_product_per_column(dense, data):
    n = dense.shape[0]
    A = SparseMatrix.from_dense(dense)
    supports = data.draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=5))
    columns = [np.array(sorted(s), dtype=np.int64) for s in supports]
    values = [np.array(data.draw(st.lists(st.sampled_from(EXTREMES), min_size=c.size,
                                          max_size=c.size))) for c in columns]
    indptr = np.concatenate(([0], np.cumsum([c.size for c in columns])))
    V = sp.csc_matrix((np.concatenate(values), np.concatenate(columns), indptr),
                      shape=(n, len(columns)))
    W = _power_steps(A, V)

    assert W.shape == V.shape
    for j, (idx, vals) in enumerate(zip(columns, values)):
        v = np.zeros(n)
        v[idx] = vals
        y = A.to_scipy() @ v
        peak = np.max(np.abs(y))
        if peak > 0.0:
            y /= peak
        support = np.nonzero(y)[0]
        lo, hi = W.indptr[j], W.indptr[j + 1]
        assert np.array_equal(W.indices[lo:hi], support)
        assert W.data[lo:hi].tobytes() == y[support].tobytes()


@st.composite
def build_params(draw):
    mode = draw(st.sampled_from(["none", "adaptive", "fixed"]))
    return SaiParams(
        epsilon=draw(st.sampled_from([0.05, 0.2, 0.4])),
        l_max=draw(st.integers(1, 8)),
        drop_mode=mode,
        drop_scale=draw(st.sampled_from([0.0, 0.5, 1.0, 30.0])),
        tol=draw(st.sampled_from([1e-3, 0.05, 0.5])) if mode == "fixed" else None,
        side=draw(st.sampled_from(["right", "left"])),
    )


def one_column_at_a_time(A: SparseMatrix, params: SaiParams):
    """M and the records assembled from ``bpsai_column`` (no dropping) or
    ``psai_tol_column`` called on each column of the operand in turn."""
    operand = A.transpose() if params.side == "left" else A
    drops = params.drop_mode == "fixed" or (
        params.drop_mode == "adaptive" and params.drop_scale != 0.0)
    results = [
        psai_tol_column(operand, k, params, operand.one_norm()) if drops
        else bpsai_column(operand, k, params)
        for k in range(operand.ncols)
    ]
    M = assemble_columns([col for col, _ in results], operand.ncols)
    return (M.transpose() if params.side == "left" else M), [rec for _, rec in results]


def test_build_matches_columns_built_one_at_a_time():
    seen = set()

    @SETTINGS
    @given(dense=matrices(), params=build_params(),
           block=st.sampled_from([1, 3, psai._BLOCK_COLUMNS]))
    def check(dense, params, block):
        A = SparseMatrix.from_dense(dense)
        with mock.patch.object(psai, "_BLOCK_COLUMNS", block):
            P = build_preconditioner(A, params)
        M, records = one_column_at_a_time(A, params)
        assert P.M.equals(M)
        assert repr(P.records) == repr(records)  # repr tells -0.0 from 0.0
        seen.update({"stalled": any(r.stalled for r in records),
                     "rank-deficient": any(r.rank_flag for r in records),
                     "guard": any(r.guard_flag for r in records),
                     "zero column": not dense.any(axis=0).all(),
                     "several blocks": block < A.ncols}.items())

    check()
    assert all((case, True) in seen for case in
               ("stalled", "rank-deficient", "guard", "zero column", "several blocks"))

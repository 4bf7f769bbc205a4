"""Property tests: SparseMatrix.from_coo against a dense np.add.at oracle, and
the Matrix Market writer and reader (round trip and symmetric expansion)."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saiprec.core import SparseMatrix, load_matrix_market, save_matrix_market

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def triplets(draw, nrows, ncols, values):
    """Coordinate triplets with repeated coordinates and cancelling pairs."""
    entries = draw(st.lists(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), values),
        max_size=3 * nrows * ncols,
    ))
    cancel = draw(st.lists(st.sampled_from(entries), max_size=len(entries))) if entries else []
    entries += [(i, j, -v) for i, j, v in cancel]
    entries = draw(st.permutations(entries))
    rows = np.array([i for i, _, _ in entries], dtype=np.int64)
    cols = np.array([j for _, j, _ in entries], dtype=np.int64)
    return rows, cols, np.array([v for _, _, v in entries], dtype=float)


def dense_oracle(nrows, ncols, rows, cols, vals):
    dense = np.zeros((nrows, ncols))
    np.add.at(dense, (rows, cols), vals)
    return dense


def check_csc_invariants(A: SparseMatrix):
    assert A.col_ptr[0] == 0 and A.col_ptr[-1] == A.nnz
    assert np.all(np.diff(A.col_ptr) >= 0)
    for k in range(A.ncols):
        idx, vals = A.column(k)
        assert np.all(np.diff(idx) > 0)
        assert np.all(vals != 0.0)


def write_and_load(text: str) -> SparseMatrix:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mtx"
        path.write_text(text)
        return load_matrix_market(path)


@PROPERTY
@given(data=st.data(), nrows=st.integers(1, 7), ncols=st.integers(1, 7))
def test_from_coo_matches_dense_oracle(data, nrows, ncols):
    # integer values: duplicate sums are exact in any summation order
    rows, cols, vals = data.draw(triplets(nrows, ncols, st.integers(-3, 3)))
    A = SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)
    check_csc_invariants(A)
    assert A.shape == (nrows, ncols)
    dense = dense_oracle(nrows, ncols, rows, cols, vals)
    assert np.array_equal(A.to_dense(), dense)
    assert A.nnz == np.count_nonzero(dense)


@PROPERTY
@given(
    nrows=st.integers(1, 6),
    ncols=st.integers(1, 6),
    entries=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        max_size=36,
    ),
)
def test_round_trip_is_bit_exact(nrows, ncols, entries):
    entries = {(i, j): v for (i, j), v in entries.items() if i < nrows and j < ncols}
    rows = np.array([i for i, _ in entries], dtype=np.int64)
    cols = np.array([j for _, j in entries], dtype=np.int64)
    A = SparseMatrix.from_coo(nrows, ncols, rows, cols, np.array(list(entries.values())))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.mtx"
        save_matrix_market(path, A)
        B = load_matrix_market(path)
    assert A.equals(B)


@PROPERTY
@given(data=st.data(), n=st.integers(1, 6), symmetry=st.sampled_from(["symmetric", "skew-symmetric"]))
def test_symmetric_storage_expands_like_dense_oracle(data, n, symmetry):
    rows, cols, vals = data.draw(triplets(n, n, st.integers(-3, 3)))
    lower = rows >= cols if symmetry == "symmetric" else rows > cols
    rows, cols, vals = rows[lower], cols[lower], vals[lower]
    body = "".join(f"{i + 1} {j + 1} {v}\n" for i, j, v in zip(rows, cols, vals))
    A = write_and_load(f"%%MatrixMarket matrix coordinate real {symmetry}\n{n} {n} {rows.size}\n{body}")
    sign = 1.0 if symmetry == "symmetric" else -1.0
    off = rows != cols
    dense = dense_oracle(n, n, rows, cols, vals) + sign * dense_oracle(n, n, cols[off], rows[off], vals[off])
    check_csc_invariants(A)
    assert np.array_equal(A.to_dense(), dense)

"""Property tests: SparseMatrix.from_coo and assemble_columns against a dense
np.add.at oracle, and the Matrix Market writer and reader (round trip and
symmetric expansion)."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saiprec.core import SparseMatrix, assemble_columns, load_matrix_market, save_matrix_market

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


@st.composite
def built_columns(draw, nrows):
    """``(indices, values)`` columns with increasing indices, as the builders
    emit them: values may be exact zeros (of either sign), columns may be empty."""
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        idx = sorted(draw(st.sets(st.integers(0, nrows - 1))))
        vals = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(
            allow_nan=False, allow_infinity=False, allow_subnormal=True)),
            min_size=len(idx), max_size=len(idx)))
        columns.append((np.array(idx, dtype=np.int64), np.array(vals, dtype=float)))
    return columns


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
@given(data=st.data(), nrows=st.integers(1, 7))
def test_assemble_columns_matches_dense_oracle(data, nrows):
    columns = data.draw(built_columns(nrows))
    A = assemble_columns(columns, nrows)
    check_csc_invariants(A)
    assert A.shape == (nrows, len(columns))
    rows = np.concatenate([idx for idx, _ in columns])
    cols = np.repeat(np.arange(len(columns)), [idx.size for idx, _ in columns])
    dense = dense_oracle(nrows, len(columns), rows, cols, np.concatenate([v for _, v in columns]))
    assert np.array_equal(A.to_dense(), dense)
    assert A.nnz == np.count_nonzero(dense)
    # each column keeps its nonzero values in order, bit for bit
    for k, (idx, vals) in enumerate(columns):
        got_idx, got_vals = A.column(k)
        assert np.array_equal(got_idx, idx[vals != 0.0])
        assert got_vals.tobytes() == vals[vals != 0.0].tobytes()


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


# the smallest subnormal, the smallest normal, the largest finite values, and
# values whose shortest round-trip form needs all 17 significant digits
EDGE_VALUES = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.30000000000000004, -1.0000000000000002,
               1.2345678901234567e-100]


@PROPERTY
@given(
    n=st.integers(1, 5),
    entries=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4),
                  st.one_of(st.sampled_from(EDGE_VALUES),
                            st.floats(allow_nan=False, allow_infinity=False))),
        max_size=25,
    ),
    comment=st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1),
                     min_size=2, max_size=4),
)
def test_round_trip_keeps_comment_and_edge_values(n, entries, comment):
    entries = {(i % n, j % n): v for i, j, v in entries}
    rows = np.array([i for i, _ in entries], dtype=np.int64)
    cols = np.array([j for _, j in entries], dtype=np.int64)
    A = SparseMatrix.from_coo(n, n, rows, cols, np.array(list(entries.values()), dtype=float))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.mtx"
        save_matrix_market(path, A, comment="\n".join(comment))
        lines = path.read_text(encoding="ascii").splitlines()
        B = load_matrix_market(path)
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1 : 1 + len(comment)] == [f"% {line}" for line in comment]
    assert lines[1 + len(comment)] == f"{n} {n} {A.nnz}"
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

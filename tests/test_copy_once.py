"""Each matrix array is copied once. A matrix that the package builds keeps
no array its caller can reach: writing to every input array afterwards
leaves the matrix as it was, and every stored array is read-only. The
builders that keep their own fresh arrays instead of copying them again
hold few copies of the result at their peak, and a static pattern stores no
values."""

import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_sparse
from saiprec.core import SparseMatrix, assemble_columns
from saiprec.static import make_pattern, postfilter, static_build


def stored(A: SparseMatrix):
    return A.col_ptr, A.row_idx, A.values


def snapshot(A: SparseMatrix) -> SparseMatrix:
    """A copy of A on arrays of its own (the public constructor copies)."""
    return SparseMatrix(A.nrows, A.ncols, *stored(A))


def scribble(arrays):
    """Change every entry of every array in place, read-only ones included."""
    for arr in arrays:
        arr.setflags(write=True)
        arr += 1


def assert_detached(A: SparseMatrix, inputs):
    """Writing to every input array leaves A equal to a copy taken before,
    and every array A stores is read-only and shares no memory with them."""
    before = snapshot(A)
    for arr in stored(A):
        assert not arr.flags.writeable
        assert not any(np.shares_memory(arr, given) for given in inputs)
    scribble(inputs)
    assert A.equals(before)


def scipy_arrays(mat):
    if mat.format == "coo":
        return [mat.data, *mat.coords]
    return [mat.data, mat.indices, mat.indptr]


def random_csc(seed: int, n: int = 30, index_dtype=np.int32):
    mat = sp.random(n, n, density=0.2, format="csc", random_state=seed)
    mat.indices = mat.indices.astype(index_dtype)
    mat.indptr = mat.indptr.astype(index_dtype)
    return mat


def non_canonical_csc():
    # unsorted rows, a duplicate and an explicit zero
    return sp.csc_matrix((np.array([1.0, 0.0, 2.0, 3.0, 4.0]), np.array([1, 0, 1, 1, 0]),
                          np.array([0, 3, 5])), shape=(2, 2))


SCIPY_INPUTS = {
    "canonical-csc-int32": lambda: random_csc(1),
    "canonical-csc-int64": lambda: random_csc(2, index_dtype=np.int64),
    "non-canonical-csc": non_canonical_csc,
    "csc-array": lambda: sp.csc_array(random_csc(3, index_dtype=np.int64)),
    "csr": lambda: random_csc(4, index_dtype=np.int64).tocsr(),
    "coo": lambda: random_csc(5, index_dtype=np.int64).tocoo(),
}


class TestNoKeptArrayIsReachable:
    @pytest.mark.parametrize("make", SCIPY_INPUTS.values(), ids=SCIPY_INPUTS.keys())
    def test_from_scipy(self, make):
        mat = make()
        expected = mat.toarray()
        A = SparseMatrix.from_scipy(mat)
        assert np.array_equal(A.to_dense(), expected)
        assert_detached(A, scipy_arrays(mat))

    def test_from_scipy_of_a_transposed_view(self):
        csr = random_csc(6, index_dtype=np.int64).tocsr()
        view = csr.T  # CSC on the arrays of csr
        assert view.format == "csc" and np.shares_memory(view.data, csr.data)
        A = SparseMatrix.from_scipy(view)
        assert np.array_equal(A.to_dense(), csr.toarray().T)
        assert_detached(A, scipy_arrays(csr))

    def test_transpose(self):
        A = random_sparse(np.random.default_rng(7), 12, 0.3, diag_boost=1.0)
        assert_detached(A.transpose(), list(stored(A)))

    @pytest.mark.parametrize("zero", [False, True], ids=["no-zero", "with-zero"])
    def test_assemble_columns(self, zero):
        rng = np.random.default_rng(8)
        columns = [(np.sort(rng.choice(20, size=5, replace=False)), rng.standard_normal(5) + 9.0)
                   for _ in range(6)]
        if zero:
            columns[2][1][3] = 0.0
        M = assemble_columns(columns, 20)
        assert M.nnz == 30 - zero
        assert_detached(M, [arr for column in columns for arr in column])

    def test_assemble_one_column(self):
        idx, vals = np.array([0, 3], dtype=np.int64), np.array([1.0, 2.0])
        M = assemble_columns([(idx, vals)], 4)
        assert_detached(M, [idx, vals])

    def test_postfilter(self):
        A = random_sparse(np.random.default_rng(9), 25, 0.15, diag_boost=4.0)
        P = static_build(A, make_pattern(A, "iplusa", 2))
        P_d = postfilter(A, P, floor=0.1)
        assert P_d.M.nnz < P.M.nnz
        assert_detached(P_d.M, [*stored(A), *stored(P.M)])

    def test_postfilter_that_drops_nothing(self):
        A = SparseMatrix.from_dense(np.diag(np.arange(1.0, 11.0)))  # M is exact
        P = static_build(A, make_pattern(A, "iplusa", 1))
        P_d = postfilter(A, P, floor=0.0)
        assert P_d.M.equals(P.M)
        assert_detached(P_d.M, [*stored(A), *stored(P.M)])


class TestPatternStoresNoValues:
    @pytest.mark.parametrize("kind", ["iplusa", "abs", "normal"])
    def test_values_read_as_ones(self, kind):
        A = random_sparse(np.random.default_rng(11), 15, 0.2, diag_boost=1.0)
        pattern = make_pattern(A, kind, 2)
        assert pattern.values.strides == (0,)  # one broadcast value
        assert np.array_equal(pattern.values, np.ones(pattern.nnz))
        assert not any(arr.flags.writeable for arr in stored(pattern))
        assert not any(np.shares_memory(arr, given) for arr in stored(pattern)
                       for given in stored(A))
        S = (A.to_dense() != 0).astype(float)
        eye = np.eye(15)
        base, out = {"iplusa": (eye + S, eye + S), "abs": (eye + S + S.T, S.T),
                     "normal": (S.T @ S, S.T)}[kind]
        steps = 1 if kind == "iplusa" else 2
        assert np.array_equal(pattern.to_dense(), np.linalg.matrix_power(base, steps) @ out != 0)

    def test_pickle_round_trip(self):
        A = random_sparse(np.random.default_rng(12), 15, 0.2, diag_boost=1.0)
        pattern = make_pattern(A, "iplusa", 2)
        assert pickle.loads(pickle.dumps(pattern)).equals(pattern)


def traced_peak(build):
    """``build()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# a bound on the traced peak of a construction, in bytes of the result's
# arrays: the result itself, the concatenation or copy it is adopted from,
# and the checks' boolean temporaries. Holding one more copy of the entries
# (as copying the fresh arrays again does) exceeds it
PEAK_COPIES = 1.75


def array_bytes(A: SparseMatrix) -> int:
    return sum(arr.nbytes for arr in stored(A))


class TestPeakMemory:
    def test_assemble_columns(self):
        rng = np.random.default_rng(13)
        n = 4000
        sizes = rng.integers(50, 150, size=300)
        columns = [(np.sort(rng.choice(n, size=size, replace=False)), rng.random(size) + 0.5)
                   for size in sizes.tolist()]
        M, peak = traced_peak(lambda: assemble_columns(columns, n))
        assert M.nnz == sizes.sum()
        assert peak <= PEAK_COPIES * array_bytes(M)

    def test_from_scipy(self):
        mat = sp.random(3000, 3000, density=0.01, format="csc", random_state=14)
        assert mat.indices.dtype == np.int32  # widened once, on adoption
        A, peak = traced_peak(lambda: SparseMatrix.from_scipy(mat))
        assert A.nnz == mat.nnz
        assert peak <= PEAK_COPIES * array_bytes(A)

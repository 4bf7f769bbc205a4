import warnings

import numpy as np
import pytest

from conftest import matrix_path, random_sparse
from saiprec.core import (
    ColumnPattern,
    MatrixMarketError,
    SparseMatrix,
    SparseVector,
    assemble_columns,
    gather_submatrix,
    load_matrix_market,
    save_matrix_market,
)


def write_mm(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestMatrixMarket:
    def test_single_entry(self, tmp_path):
        path = write_mm(tmp_path, "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0\n")
        A = load_matrix_market(path)
        assert A.shape == (1, 1)
        assert A.to_dense()[0, 0] == 5.0

    def test_symmetric_expansion(self, tmp_path):
        # lower triangle on disk; off-diagonal entries mirror, diagonal does not
        path = write_mm(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n2 1 3.0\n2 2 2.0\n",
        )
        A = load_matrix_market(path)
        assert np.array_equal(A.to_dense(), [[2.0, 3.0], [3.0, 2.0]])

    def test_symmetric_diagonal_not_mirrored(self, tmp_path):
        path = write_mm(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 1 3.0\n",
        )
        A = load_matrix_market(path)
        assert np.array_equal(A.to_dense(), [[2.0, 3.0], [3.0, 0.0]])

    def test_skew_symmetric_expansion(self, tmp_path):
        path = write_mm(
            tmp_path,
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4.0\n",
        )
        A = load_matrix_market(path)
        assert np.array_equal(A.to_dense(), [[0.0, -4.0], [4.0, 0.0]])

    def test_duplicates_summed(self, tmp_path):
        path = write_mm(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n1 1 2.5\n2 2 1.0\n",
        )
        A = load_matrix_market(path)
        assert A.to_dense()[0, 0] == 3.5
        assert A.nnz == 2

    def test_explicit_zero_purged(self, tmp_path):
        path = write_mm(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.0\n2 2 1.0\n",
        )
        A = load_matrix_market(path)
        assert A.nnz == 1

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
            "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
            "not a header\n1 1 1\n1 1 1.0\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
        ],
    )
    def test_rejects_bad_files(self, tmp_path, text):
        path = write_mm(tmp_path, text)
        with pytest.raises(MatrixMarketError):
            load_matrix_market(path)

    def test_empty_body_loads_without_warning(self, tmp_path):
        path = write_mm(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A = load_matrix_market(path)
        assert A.shape == (2, 2) and A.nnz == 0

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        A = random_sparse(rng, 9, 0.3)
        path = tmp_path / "rt.mtx"
        save_matrix_market(path, A)
        B = load_matrix_market(path)
        assert A.equals(B)

    def test_sherman4_dimensions(self):
        path = matrix_path("sherman4")
        if path is None:
            pytest.skip("sherman4 not available locally")
        A = load_matrix_market(path)
        assert A.shape == (1104, 1104)
        assert A.nnz == 3786
        # dense column-sum oracle for the 1-norm
        assert A.one_norm() == pytest.approx(np.abs(A.to_dense()).sum(axis=0).max(), abs=0)


class TestOneNorm:
    def test_identity(self):
        assert SparseMatrix.identity(5).one_norm() == 1.0

    def test_small(self):
        A = SparseMatrix.from_dense([[1.0, -2.0], [3.0, 4.0]])
        assert A.one_norm() == 6.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = random_sparse(rng, 11, 0.35)
            dense = A.to_dense()
            assert A.one_norm() == np.abs(dense).sum(axis=0).max()


class TestMatvec:
    def test_identity(self):
        x = np.arange(4.0)
        assert np.array_equal(SparseMatrix.identity(4).matvec(x), x)

    def test_diagonal(self):
        A = SparseMatrix.from_dense([[2.0, 0.0], [0.0, 3.0]])
        assert np.array_equal(A.matvec(np.ones(2)), [2.0, 3.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = random_sparse(rng, 8, 0.4)
            x = rng.standard_normal(8)
            expected = A.to_dense() @ x
            assert np.allclose(A.matvec(x), expected, atol=1e-14, rtol=0)
            xs = SparseVector.from_dense(x * (rng.random(8) < 0.5))
            assert np.allclose(A.matvec(xs), A.to_dense() @ xs.to_dense(), atol=1e-14, rtol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SparseMatrix.identity(3).matvec(np.ones(4))


class TestGatherSubmatrix:
    def test_identity_column(self):
        block, rows = gather_submatrix(SparseMatrix.identity(4), [2])
        assert block.shape == (1, 1) and block[0, 0] == 1.0
        assert list(rows) == [2]

    def test_tridiagonal(self):
        dense = np.diag(np.full(5, 2.0)) + np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)
        A = SparseMatrix.from_dense(dense)
        block, rows = gather_submatrix(A, [2])
        assert list(rows) == [1, 2, 3]
        assert np.array_equal(block[:, 0], [1.0, 2.0, 1.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            A = random_sparse(rng, 10, 0.3)
            J = np.sort(rng.choice(10, size=4, replace=False))
            dense = A.to_dense()
            support = np.nonzero(np.any(dense[:, J] != 0.0, axis=1))[0]
            block, rows = gather_submatrix(A, J)
            assert np.array_equal(rows.indices, support)
            assert np.array_equal(block, dense[np.ix_(support, J)])

    def test_extra_rows_force_included(self):
        A = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]])
        block, rows = gather_submatrix(A, [0], extra_rows=[1])
        assert list(rows) == [0, 1]
        assert np.array_equal(block[:, 0], [1.0, 0.0])

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            gather_submatrix(SparseMatrix.identity(3), [])


class TestTransposeAssemble:
    def test_transpose_involution(self):
        rng = np.random.default_rng(2)
        A = random_sparse(rng, 7, 0.3)
        assert A.transpose().transpose().equals(A)

    def test_transpose_matches_dense(self):
        rng = np.random.default_rng(9)
        dense = rng.standard_normal((6, 7)) * (rng.random((6, 7)) < 0.4)
        A = SparseMatrix.from_dense(dense)
        assert np.array_equal(A.transpose().to_dense(), dense.T)

    def test_assemble_unit_columns(self):
        cols = [SparseVector.unit(4, k) for k in range(4)]
        assert assemble_columns(cols).equals(SparseMatrix.identity(4))

    def test_assemble_round_trip_bit_exact(self):
        rng = np.random.default_rng(13)
        A = random_sparse(rng, 8, 0.35)
        cols = [A.column_vector(k) for k in range(8)]
        B = assemble_columns(cols, nrows=8)
        assert A.equals(B)


class TestInvariants:
    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 1, [0, 2], [1, 0], [1.0, 2.0])

    def test_rejects_explicit_zero(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 1, [0, 1], [0], [0.0])

    def test_coo_sums_and_purges(self):
        A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 0, 1], [1.0, -1.0, 2.0])
        assert A.nnz == 1
        assert A.to_dense()[1, 1] == 2.0

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            ColumnPattern(np.array([2, 1]))
        p = ColumnPattern.coerce([3, 1, 1])
        assert list(p) == [1, 3]

    def test_vector_purges_zeros(self):
        v = SparseVector(4, np.array([0, 2]), np.array([0.0, 5.0]))
        assert v.nnz == 1 and v.indices[0] == 2


class TestNonFinite:
    def test_loader_rejects_nan_entry(self, tmp_path):
        path = write_mm(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n",
        )
        with pytest.raises(ValueError, match="non-finite"):
            load_matrix_market(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructors_reject_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            SparseMatrix.from_dense([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="non-finite"):
            SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, bad])
        with pytest.raises(ValueError, match="non-finite"):
            assemble_columns([SparseVector(2, [0], [1.0]), SparseVector(2, [1], [bad])])


class TestConstructorsCopyInputs:
    def test_caller_arrays_stay_writable_and_detached(self):
        idx, vals, col_ptr = np.array([0, 2]), np.array([1.0, 2.0]), np.array([0, 2])
        v = SparseVector(3, idx, vals)
        p = ColumnPattern(idx)
        A = SparseMatrix(3, 1, col_ptr, idx, vals)
        idx[0], vals[0], col_ptr[1] = 1, 5.0, 1
        assert v.indices.tolist() == [0, 2] and v.values.tolist() == [1.0, 2.0]
        assert p.indices.tolist() == [0, 2]
        assert A.col_ptr.tolist() == [0, 2]
        assert A.row_idx.tolist() == [0, 2] and A.values.tolist() == [1.0, 2.0]

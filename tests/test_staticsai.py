import warnings

import numpy as np
import pytest

from conftest import random_sparse, random_well_conditioned
from saiprec.core import SparseMatrix
from saiprec.psai import RECORD_DTYPE, Preconditioner
from saiprec.static import (
    PatternSizeError,
    make_pattern,
    postfilter,
    static_build,
)


def static_records(M: SparseMatrix, residual: float) -> np.recarray:
    """The records a static build of M would hold with the one ``residual``
    in every column: no loops, no drop step (NaN tolerances)."""
    records = np.zeros(M.ncols, dtype=RECORD_DTYPE).view(np.recarray)
    records.k = np.arange(M.ncols)
    records.pre_drop_residual = records.post_drop_residual = residual
    records.nnz_final = M.column_nnz()
    records.tol_min = records.tol_max = np.nan
    return records


def dense_pattern_oracle(A: SparseMatrix, kind: str, k: int) -> np.ndarray:
    """Boolean dense-product oracle for the symbolic power patterns."""
    B = (A.to_dense() != 0.0).astype(float)
    eye = np.eye(A.nrows)
    if kind == "iplusa":
        out = np.linalg.matrix_power(eye + B, k)
    elif kind == "abs":
        out = np.linalg.matrix_power(eye + B + B.T, k) @ B.T
    else:
        out = np.linalg.matrix_power(B.T @ B, k) @ B.T
    return out != 0.0


def pattern_to_dense(P) -> np.ndarray:
    out = np.zeros((P.nrows, P.ncols), dtype=bool)
    for j in range(P.ncols):
        out[P.column(j)[0], j] = True
    return out


class TestMakePattern:
    def test_diagonal_matrix_all_kinds(self):
        A = SparseMatrix.from_dense(np.diag([2.0, 3.0, 4.0]))
        for kind in ("iplusa", "abs", "normal"):
            P = make_pattern(A, kind, 3)
            assert np.array_equal(pattern_to_dense(P), np.eye(3, dtype=bool))

    def test_tridiagonal_square_is_pentadiagonal(self):
        n = 7
        dense = np.diag(np.full(n, 2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        A = SparseMatrix.from_dense(dense)
        P = make_pattern(A, "iplusa", 2)
        expected = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2
        assert np.array_equal(pattern_to_dense(P), expected)

    @pytest.mark.parametrize("kind", ["iplusa", "abs", "normal"])
    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_matches_dense_boolean_oracle(self, kind, power):
        rng = np.random.default_rng(hash((kind, power)) % 2**32)
        for _ in range(8):
            A = random_sparse(rng, 12, 0.2, diag_boost=1.0)
            P = make_pattern(A, kind, power)
            assert np.array_equal(pattern_to_dense(P), dense_pattern_oracle(A, kind, power))

    def test_cap_exceeded(self, monkeypatch):
        import saiprec.static

        rng = np.random.default_rng(3)
        A = random_sparse(rng, 20, 0.4, diag_boost=1.0)
        monkeypatch.setattr(saiprec.static, "_NNZ_CAP", 10)
        with pytest.raises(PatternSizeError, match="exceeds cap 10"):
            make_pattern(A, "iplusa", 3)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            make_pattern(SparseMatrix.identity(3), "nope", 2)
        with pytest.raises(ValueError):
            make_pattern(SparseMatrix.identity(3), "iplusa", 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_power_must_be_an_integer(self, k):
        with pytest.raises(TypeError, match=f"k must be an integer, got {k!r}"):
            make_pattern(SparseMatrix.identity(3), "iplusa", k)
        assert make_pattern(SparseMatrix.identity(3), "iplusa", np.int64(2)).nnz == 3

    @pytest.mark.parametrize("kind", ["iplusa", "abs", "normal"])
    def test_non_square_rejected(self, kind):
        # "normal" returned a 4 x 3 pattern, the others failed inside scipy
        with pytest.raises(ValueError, match="square matrix required"):
            make_pattern(SparseMatrix.from_dense(np.ones((3, 4))), kind, 1)


class TestStaticBuild:
    @pytest.mark.parametrize("kind", ["abs", "normal"])
    def test_empty_pattern_column_rejected_before_solving(self, monkeypatch, kind):
        import saiprec.static

        A = SparseMatrix.from_dense([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 4.0]])
        pattern = make_pattern(A, kind, 1)  # row 1 of A is zero: column 1 is empty
        assert pattern.column_nnz()[1] == 0
        solved = []
        monkeypatch.setattr(saiprec.static, "_grow_block", lambda ks, *args: solved.extend(ks))
        with pytest.raises(ValueError, match="pattern column 1 is empty"):
            static_build(A, pattern)
        assert solved == []

    def test_non_square_rejected_before_solving(self, monkeypatch):
        import saiprec.static

        A = SparseMatrix.from_dense(np.ones((3, 4)))
        solved = []
        monkeypatch.setattr(saiprec.static, "_grow_block", lambda ks, *args: solved.extend(ks))
        with pytest.raises(ValueError, match="square matrix required"):
            static_build(A, A)
        assert solved == []

    def test_identity_diagonal_pattern(self):
        A = SparseMatrix.identity(5)
        P = static_build(A, make_pattern(A, "iplusa", 1))
        assert P.M.equals(SparseMatrix.identity(5))
        assert all(r.pre_drop_residual == pytest.approx(0.0, abs=1e-15) for r in P.records)

    def test_full_pattern_gives_dense_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = random_well_conditioned(rng, 10, density=0.9)
            pattern = make_pattern(A, "iplusa", 10)
            if pattern.nnz != 100:
                continue
            P = static_build(A, pattern)
            assert np.allclose(P.M.to_dense(), np.linalg.inv(A.to_dense()), atol=1e-8, rtol=0)

    def test_records_hold_residuals(self):
        rng = np.random.default_rng(13)
        A = random_well_conditioned(rng, 9, density=0.4)
        P = static_build(A, make_pattern(A, "iplusa", 2))
        dense = A.to_dense()
        for k, rec in enumerate(P.records):
            e = np.zeros(9)
            e[k] = 1.0
            col = np.zeros(9)
            idx, vals = P.M.column(k)
            col[idx] = vals
            assert rec.pre_drop_residual == pytest.approx(
                np.linalg.norm(dense @ col - e), abs=1e-12
            )

    def test_deterministic_across_workers(self):
        rng = np.random.default_rng(17)
        A = random_sparse(rng, 20, 0.15, diag_boost=2.0)
        pattern = make_pattern(A, "iplusa", 2)
        assert static_build(A, pattern, threads=1).M.equals(
            static_build(A, pattern, threads=3).M
        )


class TestPostfilter:
    def test_mismatched_shapes_rejected(self):
        # a 5x5 A against a 4x4 M failed inside scipy's matmul
        A4 = SparseMatrix.identity(4)
        P = static_build(A4, make_pattern(A4, "iplusa", 1))
        with pytest.raises(ValueError, match="M is 4x4 but A is 5x5"):
            postfilter(SparseMatrix.identity(5), P)

    def test_identity_unchanged(self):
        A = SparseMatrix.identity(4)
        P = static_build(A, make_pattern(A, "iplusa", 1))
        F = postfilter(A, P)
        assert F.M.equals(P.M)
        assert F.filtered

    def test_nnz_never_grows_and_bound_holds(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            A = random_well_conditioned(rng, 12, density=0.35)
            P = static_build(A, make_pattern(A, "iplusa", 3))
            F = postfilter(A, P)
            assert F.M.nnz <= P.M.nnz
            dense = A.to_dense()
            for k, rec in enumerate(F.records):
                e = np.zeros(12)
                e[k] = 1.0
                col = np.zeros(12)
                idx, vals = F.M.column(k)
                col[idx] = vals
                res = np.linalg.norm(dense @ col - e)
                assert rec.post_drop_residual == pytest.approx(res, abs=1e-12)
                bound = 2.0 * max(P.records[k].pre_drop_residual, 0.1)
                assert res <= bound + 1e-12

    def test_filter_drops_something_on_loose_pattern(self):
        # a deliberately oversized envelope leaves entries below tolerance
        rng = np.random.default_rng(23)
        hits = 0
        for _ in range(10):
            A = random_sparse(rng, 14, 0.15, diag_boost=3.0)
            P = static_build(A, make_pattern(A, "iplusa", 3))
            F = postfilter(A, P)
            if F.M.nnz < P.M.nnz:
                hits += 1
        assert hits >= 5

    def test_left_side_preconditioner_rejected(self):
        from saiprec.psai import SaiParams, build_preconditioner

        A = random_well_conditioned(np.random.default_rng(5), 12, density=0.4)
        P = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=5, side="left"))
        with pytest.raises(ValueError, match="right-side"):
            postfilter(A, P)

    def test_floor_is_configurable(self):
        rng = np.random.default_rng(29)
        A = random_well_conditioned(rng, 10, density=0.4)
        P = static_build(A, make_pattern(A, "iplusa", 3))
        mild = postfilter(A, P, floor=0.0)
        aggressive = postfilter(A, P, floor=0.5)
        assert aggressive.M.nnz <= mild.M.nnz

    @pytest.mark.parametrize("floor", [True, False, np.True_, "0.1"])
    def test_boolean_or_string_floor_rejected(self, floor):
        # floor=True was taken as 1.0 and "0.1" as 0.1
        A = SparseMatrix.from_dense([[2.0, 1.0], [1.0, 3.0]])
        P = static_build(A, make_pattern(A, "iplusa", 1))
        with pytest.raises(TypeError, match="floor must be a real number"):
            postfilter(A, P, floor=floor)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, -0.1])
    def test_non_finite_or_negative_floor_rejected(self, floor):
        A = SparseMatrix.from_dense([[2.0, 1.0], [1.0, 3.0]])
        P = static_build(A, make_pattern(A, "iplusa", 1))
        with pytest.raises(ValueError, match="floor must be finite and nonnegative"):
            postfilter(A, P, floor=floor)

    def test_threshold_is_inclusive(self):
        # entries exactly equal to the tolerance are dropped
        dense = np.eye(3)
        dense[0, 1] = 0.05
        A = SparseMatrix.identity(3)
        M = SparseMatrix.from_dense(dense)
        P = Preconditioner(
            M=M, records=static_records(M, 0.1), params=None, a_one_norm=1.0, a_nnz=3
        )
        # column 1: eps_k -> floor 0.1, nnz 2, ||A||_1 = 1 -> tol = 0.05 exactly
        F = postfilter(A, P, floor=0.1)
        idx, vals = F.M.column(1)
        assert idx.tolist() == [1]


    def test_all_zero_matrix_filters_without_warning(self):
        # ||A||_1 = 0: every tolerance is inf, and M_d stays empty
        A = SparseMatrix.from_dense(np.zeros((3, 3)))
        P = static_build(A, make_pattern(A, "iplusa", 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = postfilter(A, P)
        assert P.a_one_norm == 0.0 and F.M.nnz == 0
        assert [(r.tol_min, r.tol_max, r.guard_flag) for r in F.records] == [
            (np.inf, np.inf, False)] * 3


class TestPostfilterGuard:
    """The guard and empty-column paths, against a dense residual oracle."""

    def test_guard_and_empty_column(self):
        dense_a = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 0.0], [1.0, 0.0, 4.0]])
        A = SparseMatrix.from_dense(dense_a)  # ||A||_1 = 4
        dense_m = np.zeros((3, 3))
        dense_m[:2, 0] = [0.01, -0.012]  # tol 0.1 / (2 * 4) = 0.0125: all dropped
        dense_m[2, 2] = 0.25  # column 1 stays empty
        M = SparseMatrix.from_dense(dense_m)
        P = Preconditioner(
            M=M, records=static_records(M, 0.05), params=None, a_one_norm=4.0, a_nnz=A.nnz
        )
        F = postfilter(A, P, floor=0.1)
        expected = np.zeros((3, 3))
        expected[1, 0] = -0.012  # the guard keeps the largest entry
        expected[2, 2] = 0.25
        assert np.array_equal(F.M.to_dense(), expected)
        assert [r.guard_flag for r in F.records] == [True, False, False]
        assert [r.nnz_final for r in F.records] == [1, 0, 1]
        assert F.records[1].post_drop_residual == 1.0
        oracle = np.linalg.norm(dense_a @ expected - np.eye(3), axis=0)
        got = [r.post_drop_residual for r in F.records]
        assert np.allclose(got, oracle, rtol=1e-14, atol=0)

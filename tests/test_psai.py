import numpy as np
import pytest

from conftest import matrix_path, random_sparse, random_well_conditioned
from saiprec.core import SparseMatrix, load_matrix_market
from saiprec.psai import (
    SaiParams,
    adaptive_drop_tolerance,
    bpsai_column,
    build_preconditioner,
    psai_tol_column,
)
from saiprec.static import make_pattern, static_build


class TestAdaptiveDropTolerance:
    def test_direct_formula(self):
        assert adaptive_drop_tolerance(0.2, 10, 2.0) == pytest.approx(0.01)

    def test_single_entry(self):
        assert adaptive_drop_tolerance(0.3, 1, 1.0) == pytest.approx(0.3)

    def test_halves_when_nnz_doubles(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            eps = float(rng.uniform(0.05, 0.45))
            nnz = int(rng.integers(1, 50))
            norm = float(rng.uniform(0.1, 50.0))
            assert adaptive_drop_tolerance(eps, 2 * nnz, norm) == pytest.approx(
                adaptive_drop_tolerance(eps, nnz, norm) / 2.0
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            adaptive_drop_tolerance(0.0, 1, 1.0)
        with pytest.raises(ValueError):
            adaptive_drop_tolerance(0.2, 0, 1.0)
        with pytest.raises(ValueError):
            adaptive_drop_tolerance(0.2, 1, 0.0)


class TestBpsaiColumn:
    def test_identity(self):
        A = SparseMatrix.identity(4)
        params = SaiParams(epsilon=0.3, l_max=5, drop_mode="none")
        vec, rec = bpsai_column(A, 2, params)
        assert vec.to_dense() == pytest.approx(np.eye(4)[2])
        assert rec.pre_drop_residual == pytest.approx(0.0, abs=1e-15)
        assert rec.loops_used == 0

    def test_diagonal(self):
        A = SparseMatrix.from_dense(np.diag([2.0, 4.0, 8.0]))
        params = SaiParams(epsilon=0.3, l_max=5, drop_mode="none")
        vec, rec = bpsai_column(A, 2, params)
        assert vec.to_dense() == pytest.approx([0.0, 0.0, 0.125])
        assert rec.met_accuracy

    def test_dense_inverse_oracle(self):
        rng = np.random.default_rng(17)
        params = SaiParams(epsilon=1e-12, l_max=20, drop_mode="none")
        for _ in range(10):
            n = int(rng.integers(5, 11))
            A = random_well_conditioned(rng, n, density=0.5)
            inv = np.linalg.inv(A.to_dense())
            for k in range(n):
                vec, rec = bpsai_column(A, k, params)
                if len(vec.indices) == n or rec.met_accuracy:
                    assert np.allclose(vec.to_dense(), inv[:, k], atol=1e-8, rtol=0)

    def test_pattern_containment(self):
        rng = np.random.default_rng(23)
        params = SaiParams(epsilon=1e-10, l_max=4, drop_mode="none")
        for _ in range(10):
            A = random_sparse(rng, 10, 0.2, diag_boost=3.0)
            envelope = make_pattern(A, "iplusa", params.l_max)
            for k in range(10):
                vec, _ = bpsai_column(A, k, params)
                assert set(vec.indices.tolist()) <= set(envelope.column(k).tolist())

    def test_loop_control_invariant(self):
        rng = np.random.default_rng(29)
        params = SaiParams(epsilon=0.2, l_max=3, drop_mode="none")
        for _ in range(10):
            A = random_sparse(rng, 12, 0.25, diag_boost=1.5)
            for k in range(12):
                _, rec = bpsai_column(A, k, params)
                assert rec.loops_used <= params.l_max
                assert rec.met_accuracy or rec.loops_used == params.l_max or rec.stalled


class TestPsaiTolColumn:
    def test_identity_matches_bpsai(self):
        A = SparseMatrix.identity(5)
        params = SaiParams(epsilon=0.3, l_max=5, drop_mode="adaptive")
        for k in range(5):
            vec_d, rec_d = psai_tol_column(A, k, params, A.one_norm())
            vec_b, rec_b = bpsai_column(A, k, SaiParams(epsilon=0.3, l_max=5, drop_mode="none"))
            assert np.array_equal(vec_d.to_dense(), vec_b.to_dense())
            assert rec_d.nnz_final == rec_b.nnz_final == 1

    def test_residual_doubling_contract(self):
        # columns that meet the accuracy target before the final drop stay
        # within twice the target afterwards
        rng = np.random.default_rng(31)
        params = SaiParams(epsilon=0.3, l_max=10, drop_mode="adaptive")
        for _ in range(25):
            A = random_sparse(rng, 12, 0.3, diag_boost=1.0)
            a_norm = A.one_norm()
            for k in range(12):
                _, rec = psai_tol_column(A, k, params, a_norm)
                if rec.pre_drop_residual <= params.epsilon:
                    assert rec.post_drop_residual <= 2.0 * params.epsilon + 1e-12

    def test_post_drop_residual_recomputed(self):
        rng = np.random.default_rng(37)
        A = random_well_conditioned(rng, 10, density=0.4)
        params = SaiParams(epsilon=0.2, l_max=8, drop_mode="adaptive")
        a_norm = A.one_norm()
        dense = A.to_dense()
        for k in range(10):
            vec, rec = psai_tol_column(A, k, params, a_norm)
            e = np.zeros(10)
            e[k] = 1.0
            assert rec.post_drop_residual == pytest.approx(
                np.linalg.norm(dense @ vec.to_dense() - e), abs=1e-12
            )

    def test_adaptive_sparser_than_none(self):
        # paired run on seeded instances: dropping never ends denser, and the
        # dropped column stays within the doubling bound of its own target
        rng = np.random.default_rng(43)
        eps = 0.3
        for _ in range(15):
            A = random_well_conditioned(rng, 10, density=0.45)
            a_norm = A.one_norm()
            for k in range(10):
                vec_d, rec_d = psai_tol_column(
                    A, k, SaiParams(epsilon=eps, l_max=10, drop_mode="adaptive"), a_norm
                )
                vec_b, rec_b = bpsai_column(
                    A, k, SaiParams(epsilon=eps, l_max=10, drop_mode="none")
                )
                assert rec_d.nnz_final <= rec_b.nnz_final
                if rec_d.met_accuracy:
                    assert rec_d.post_drop_residual <= 2.0 * eps + 1e-12
                # verified on these seeds: dropping stays within twice the
                # no-drop run's controlling residual
                assert rec_d.post_drop_residual <= 2.0 * rec_b.pre_drop_residual + 1e-12

    def test_empty_column_guard(self):
        # huge fixed tolerance forces the guard: the largest entry survives
        A = SparseMatrix.from_dense([[0.5, 0.4], [0.4, 0.5]])
        params = SaiParams(epsilon=0.01, l_max=4, drop_mode="fixed", tol=1e6)
        vec, rec = psai_tol_column(A, 0, params, A.one_norm())
        assert rec.guard_flag
        assert vec.nnz == 1

    def test_fixed_mode_records_adaptive_range(self):
        rng = np.random.default_rng(47)
        A = random_well_conditioned(rng, 8, density=0.5)
        params = SaiParams(epsilon=0.2, l_max=8, drop_mode="fixed", tol=1e-3)
        for k in range(8):
            _, rec = psai_tol_column(A, k, params, A.one_norm())
            if rec.loops_used and rec.tol_min is not None:
                assert rec.tol_min <= rec.tol_max


class TestBuildPreconditioner:
    def test_identity(self):
        A = SparseMatrix.identity(6)
        P = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=5))
        assert P.M.equals(SparseMatrix.identity(6))
        assert P.spar == pytest.approx(1.0)
        assert len(P.records) == 6

    def test_deterministic_across_workers(self):
        # large enough to cross the process-pool threshold
        rng = np.random.default_rng(53)
        A = random_sparse(rng, 160, 0.04, diag_boost=1.5)
        params = SaiParams(epsilon=0.25, l_max=8, drop_mode="adaptive")
        P1 = build_preconditioner(A, params, threads=1)
        P2 = build_preconditioner(A, params, threads=4)
        assert P1.M.equals(P2.M)
        assert [r.pre_drop_residual for r in P1.records] == [
            r.pre_drop_residual for r in P2.records
        ]

    def test_left_side_transposes(self):
        rng = np.random.default_rng(59)
        A = random_well_conditioned(rng, 9, density=0.5)
        P = build_preconditioner(A, SaiParams(epsilon=0.2, l_max=8, side="left"))
        Pr = build_preconditioner(
            A.transpose(), SaiParams(epsilon=0.2, l_max=8, side="right")
        )
        assert P.M.equals(Pr.M.transpose())
        # columns of the left build approximate rows of the inverse
        assert np.allclose(
            P.M.to_dense() @ A.to_dense(), np.eye(9), atol=2.5 * 0.2
        )

    def test_monotone_sparsity_under_scaling(self):
        rng = np.random.default_rng(61)
        A = random_well_conditioned(rng, 14, density=0.3)
        scalings = [1.0, 0.5, 0.1, 0.01, 0.0]
        nnzs = []
        for s in scalings:
            P = build_preconditioner(
                A, SaiParams(epsilon=0.2, l_max=8, drop_mode="adaptive", drop_scale=s)
            )
            nnzs.append(P.M.nnz)
        assert nnzs == sorted(nnzs)

    def test_no_empty_columns(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            A = random_sparse(rng, 15, 0.25, diag_boost=1.0)
            P = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=6))
            assert np.all(np.diff(P.M.col_ptr) >= 1)

    def test_epsilon_of_half_warns(self):
        with pytest.warns(UserWarning):
            SaiParams(epsilon=0.6, l_max=3)


class TestSherman4Row:
    def test_table2_values(self):
        path = matrix_path("sherman4")
        if path is None:
            pytest.skip("sherman4 not available locally")
        A = load_matrix_market(path)
        P = build_preconditioner(
            A, SaiParams(epsilon=0.2, l_max=8, drop_mode="adaptive"), threads=1
        )
        assert P.coln(0.2) == 0
        assert P.r_max <= 0.2 + 1e-6
        assert P.spar == pytest.approx(3.36, rel=0.2)


class TestZeroColumn:
    """A structurally zero column k of A gives an empty, flagged column of M."""

    @staticmethod
    def matrix_with_zero_column(k):
        rng = np.random.default_rng(7)
        dense = random_well_conditioned(rng, 8, density=0.5).to_dense()
        dense[:, k] = 0.0
        return SparseMatrix.from_dense(dense)

    @pytest.mark.parametrize(
        "params",
        [
            SaiParams(epsilon=0.3, l_max=5, drop_mode="none"),
            SaiParams(epsilon=0.3, l_max=5, drop_mode="adaptive"),
            SaiParams(epsilon=0.3, l_max=5, drop_mode="fixed", tol=1e-3),
        ],
        ids=lambda p: p.drop_mode,
    )
    def test_adaptive_builders(self, params):
        A = self.matrix_with_zero_column(3)
        P = build_preconditioner(A, params)
        assert P.M.column(3)[0].size == 0
        assert P.records[3].rank_flag
        assert P.records[3].stalled
        assert not P.records[3].met_accuracy

    def test_static_build(self):
        A = self.matrix_with_zero_column(3)
        P = static_build(A, make_pattern(A, "iplusa", 2))
        assert P.M.column(3)[0].size == 0
        assert P.records[3].rank_flag


class TestEmptyMatrix:
    """A 0x0 matrix loads, but both builders reject it before any work."""

    @staticmethod
    def empty_matrix(tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
        return load_matrix_market(path)

    def test_build_preconditioner(self, tmp_path):
        with pytest.raises(ValueError, match="empty 0x0 matrix"):
            build_preconditioner(self.empty_matrix(tmp_path), SaiParams(epsilon=0.3, l_max=5))

    def test_static_build(self, tmp_path):
        A = self.empty_matrix(tmp_path)
        with pytest.raises(ValueError, match="empty 0x0 matrix"):
            static_build(A, make_pattern(A, "iplusa", 1))

import warnings

import numpy as np
import pytest

from conftest import dense_column, matrix_path, random_sparse, random_well_conditioned
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

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            adaptive_drop_tolerance(np.nan, 1, 1.0)
        with pytest.raises(ValueError):
            adaptive_drop_tolerance(0.2, 1, np.nan)

    def test_rejects_infinite_norm(self):
        # an infinite norm would make every tolerance 0 and drop nothing
        with pytest.raises(ValueError, match="a_one_norm must be positive and finite"):
            adaptive_drop_tolerance(0.2, 1, np.inf)

    @pytest.mark.parametrize("epsilon, nnz_mk, a_one_norm", [
        (True, 1, 1.0), ("0.2", 1, 1.0), (0.2, 1.5, 1.0), (0.2, True, 1.0),
        (0.2, np.array([1.0, 2.0]), 1.0), (0.2, 1, True), (0.2, 1, "1.0"),
    ])
    def test_rejects_booleans_strings_and_fractional_counts(self, epsilon, nnz_mk, a_one_norm):
        # True was taken as 1 and a count of 1.5 as a count
        with pytest.raises(TypeError, match="must be a real number|must be an integer count"):
            adaptive_drop_tolerance(epsilon, nnz_mk, a_one_norm)

    @pytest.mark.parametrize("nnz_mk, a_one_norm, expected", [
        ([1, 2], 1.0, [0.2, 0.1]), ((3,), 2, [0.2 / 6]), (np.array([4]), 0.5, [0.1]),
    ])
    def test_sequences_of_counts(self, nnz_mk, a_one_norm, expected):
        # a list or tuple of counts passed the checks, then failed to multiply
        assert adaptive_drop_tolerance(0.2, nnz_mk, a_one_norm).tolist() == expected

    def test_one_count_gives_a_float(self):
        assert type(adaptive_drop_tolerance(0.2, 10, 2.0)) is float
        assert type(adaptive_drop_tolerance(0.2, np.int64(10), 2.0)) is float

    @pytest.mark.parametrize("epsilon", [1.0, 2.0, -0.1])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        # epsilon 2.0 gave a tolerance, as if the theory covered it
        with pytest.raises(ValueError, match="epsilon must lie in"):
            adaptive_drop_tolerance(epsilon, 1, 1.0)

    def test_array_of_counts(self):
        counts = np.array([1, 3, 7])
        tols = adaptive_drop_tolerance(0.2, counts, 1.7)
        assert tols.tolist() == [adaptive_drop_tolerance(0.2, int(c), 1.7) for c in counts]
        with pytest.raises(ValueError, match="nnz_mk must be at least 1"):
            adaptive_drop_tolerance(0.2, np.array([2, 0]), 1.7)


class TestSaiParams:
    @pytest.mark.parametrize("kwargs, message", [
        ({"drop_scale": np.nan}, "drop_scale must be nonnegative"),
        ({"drop_scale": np.inf}, "drop_scale must be nonnegative"),
        ({"drop_mode": "fixed", "tol": np.nan}, "fixed drop mode needs tol > 0"),
        ({"drop_mode": "fixed", "tol": np.inf}, "fixed drop mode needs tol > 0"),
    ])
    def test_non_finite_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SaiParams(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"epsilon": True}, "epsilon"),
        ({"drop_mode": "fixed", "tol": True}, "tol"),
        ({"drop_mode": "fixed", "tol": np.True_}, "tol"),
        ({"drop_scale": True}, "drop_scale"),
        ({"drop_scale": np.True_}, "drop_scale"),
    ])
    def test_real_fields_reject_booleans(self, kwargs, name):
        # tol=True and drop_scale=True were taken as 1
        with pytest.raises(TypeError, match=f"{name} must be a real number"):
            SaiParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"drop_mode": "adaptive", "tol": "x"}, {"drop_mode": "none", "tol": -5.0},
        {"tol": 1e-3},
    ])
    def test_tol_outside_fixed_mode_rejected(self, kwargs):
        # the tolerance was accepted and silently ignored
        with pytest.raises(ValueError, match="tol is used by the fixed drop mode only"):
            SaiParams(**kwargs)

    @pytest.mark.parametrize("l_max", [2.5, 3.0, True, False, "3", None])
    def test_l_max_must_be_an_integer(self, l_max):
        # a float took its ceiling of loops, and True one loop
        with pytest.raises(TypeError, match=f"l_max must be an integer, got {l_max!r}"):
            SaiParams(l_max=l_max)
        assert SaiParams(l_max=np.int64(3)).l_max == 3

    @pytest.mark.parametrize("kwargs, drops", [
        ({"drop_mode": "none"}, False),
        ({"drop_mode": "none", "drop_scale": 2.0}, False),
        ({"drop_mode": "adaptive"}, True),
        ({"drop_mode": "adaptive", "drop_scale": 0.0}, False),
        ({"drop_mode": "fixed", "tol": 1e-3}, True),
        ({"drop_mode": "fixed", "tol": 1e-3, "drop_scale": 0.0}, True),
    ])
    def test_drops(self, kwargs, drops):
        assert SaiParams(**kwargs).drops is drops


class TestBpsaiColumn:
    def test_identity(self):
        A = SparseMatrix.identity(4)
        params = SaiParams(epsilon=0.3, l_max=5, drop_mode="none")
        vec, rec = bpsai_column(A, 2, params)
        assert dense_column(vec, 4) == pytest.approx(np.eye(4)[2])
        assert rec.pre_drop_residual == pytest.approx(0.0, abs=1e-15)
        assert rec.loops_used == 0

    def test_diagonal(self):
        A = SparseMatrix.from_dense(np.diag([2.0, 4.0, 8.0]))
        params = SaiParams(epsilon=0.3, l_max=5, drop_mode="none")
        vec, rec = bpsai_column(A, 2, params)
        assert dense_column(vec, 3) == pytest.approx([0.0, 0.0, 0.125])
        assert rec.pre_drop_residual <= params.epsilon

    def test_dense_inverse_oracle(self):
        rng = np.random.default_rng(17)
        params = SaiParams(epsilon=1e-12, l_max=20, drop_mode="none")
        for _ in range(10):
            n = int(rng.integers(5, 11))
            A = random_well_conditioned(rng, n, density=0.5)
            inv = np.linalg.inv(A.to_dense())
            for k in range(n):
                vec, rec = bpsai_column(A, k, params)
                if np.count_nonzero(vec[1]) == n or rec.pre_drop_residual <= params.epsilon:
                    assert np.allclose(dense_column(vec, n), inv[:, k], atol=1e-8, rtol=0)

    def test_pattern_containment(self):
        rng = np.random.default_rng(23)
        params = SaiParams(epsilon=1e-10, l_max=4, drop_mode="none")
        for _ in range(10):
            A = random_sparse(rng, 10, 0.2, diag_boost=3.0)
            envelope = make_pattern(A, "iplusa", params.l_max)
            for k in range(10):
                vec, _ = bpsai_column(A, k, params)
                assert set(vec[0].tolist()) <= set(envelope.column(k)[0].tolist())

    def test_loop_control_invariant(self):
        rng = np.random.default_rng(29)
        params = SaiParams(epsilon=0.2, l_max=3, drop_mode="none")
        for _ in range(10):
            A = random_sparse(rng, 12, 0.25, diag_boost=1.5)
            for k in range(12):
                _, rec = bpsai_column(A, k, params)
                assert rec.loops_used <= params.l_max
                assert (rec.pre_drop_residual <= params.epsilon
                        or rec.loops_used == params.l_max or rec.stalled)


class TestPsaiTolColumn:
    @pytest.mark.parametrize("params", [
        SaiParams(drop_mode="none"),
        SaiParams(drop_mode="adaptive", drop_scale=0.0),
    ], ids=["drop_mode-none", "drop_scale-0"])
    def test_params_that_do_not_drop_rejected(self, params):
        # drop_scale 0 means no dropping at all, as in build_preconditioner,
        # so the dropping column builder refuses it like drop_mode "none"
        A = SparseMatrix.from_dense([[4.0, 1.0], [1.0, 4.0]])
        assert not params.drops
        with pytest.raises(ValueError, match="psai_tol_column needs"):
            psai_tol_column(A, 0, params, A.one_norm())

    @pytest.mark.parametrize("a_one_norm", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_one_norm_rejected_at_entry(self, a_one_norm):
        # every column of a diagonal A is exact on {k}, so no drop step runs
        # and only a check at entry sees the norm
        A = SparseMatrix.from_dense(np.diag([2.0, 3.0, 4.0]))
        with pytest.raises(ValueError, match="a_one_norm must be positive and finite"):
            psai_tol_column(A, 1, SaiParams(epsilon=0.3, l_max=5), a_one_norm)

    def test_infinite_one_norm_rejected_on_a_growing_column(self):
        # a tridiagonal column grows and drops; an infinite norm would give
        # it the tolerance 0 (tol_min 0.0) instead of an error
        A = SparseMatrix.from_dense(np.eye(4) * 4.0 + np.eye(4, k=1) + np.eye(4, k=-1))
        with pytest.raises(ValueError, match="a_one_norm must be positive and finite"):
            psai_tol_column(A, 1, SaiParams(epsilon=0.05, l_max=5), np.inf)

    def test_zero_one_norm_of_a_matrix_without_entries(self):
        A = SparseMatrix.from_dense(np.zeros((3, 3)))
        (support, values), rec = psai_tol_column(A, 1, SaiParams(epsilon=0.3, l_max=5), 0.0)
        assert rec.stalled and np.isnan(rec.tol_min) and np.isnan(rec.tol_max)
        assert not values.any()

    def test_identity_matches_bpsai(self):
        A = SparseMatrix.identity(5)
        params = SaiParams(epsilon=0.3, l_max=5, drop_mode="adaptive")
        for k in range(5):
            vec_d, rec_d = psai_tol_column(A, k, params, A.one_norm())
            vec_b, rec_b = bpsai_column(A, k, SaiParams(epsilon=0.3, l_max=5, drop_mode="none"))
            assert np.array_equal(dense_column(vec_d, 5), dense_column(vec_b, 5))
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
                np.linalg.norm(dense @ dense_column(vec, 10) - e), abs=1e-12
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
                if rec_d.pre_drop_residual <= eps:
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
        assert np.count_nonzero(vec[1]) == 1

    def test_coefficient_equal_to_fixed_tol_is_dropped(self):
        # the threshold test is inclusive: |m_j| <= tol drops m_j; tol is the
        # builder's own value of that coefficient, so the tie is exact
        A = SparseMatrix.from_dense([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
        base = SaiParams(epsilon=0.05, l_max=1, drop_mode="fixed", tol=1e-300)
        (support, values), _ = psai_tol_column(A, 0, base, A.one_norm())
        assert support.tolist() == [0, 1]
        tie = abs(float(values[1]))
        below = np.nextafter(tie, 0.0)
        for tol, kept in ((tie, [0]), (below, [0, 1])):
            params = SaiParams(epsilon=0.05, l_max=1, drop_mode="fixed", tol=tol)
            (support, _), rec = psai_tol_column(A, 0, params, A.one_norm())
            assert support.tolist() == kept
            assert not rec.guard_flag

    def test_fixed_mode_records_adaptive_range(self):
        rng = np.random.default_rng(47)
        A = random_well_conditioned(rng, 8, density=0.5)
        params = SaiParams(epsilon=0.2, l_max=8, drop_mode="fixed", tol=1e-3)
        dropped = 0
        for k in range(8):
            _, rec = psai_tol_column(A, k, params, A.one_norm())
            # NaN tolerances mark a column that ran no drop step
            assert np.isnan(rec.tol_min) == np.isnan(rec.tol_max)
            if not np.isnan(rec.tol_min):
                assert rec.loops_used and 0.0 < rec.tol_min <= rec.tol_max
                dropped += 1
        assert dropped


class TestNnzFinalMatchesM:
    """A least-squares coefficient that comes out exactly 0.0 is purged when
    M is assembled, and ``record.nnz_final`` counts the entries M stores."""

    # column 0 of the inverse is e_1: the coefficient of index 0 is exactly 0
    PERM = SparseMatrix.from_dense([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    ARROW = SparseMatrix.from_dense([[4.0, 1.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])

    @pytest.mark.parametrize("A, kind", [(PERM, "iplusa"), (ARROW, "abs"), (ARROW, "normal")])
    def test_static_build(self, A, kind):
        pattern = make_pattern(A, kind, 2)
        P = static_build(A, pattern)
        # every pattern index is solved for, so a shorter M column held a 0.0
        assert np.any(P.M.column_nnz() < pattern.column_nnz())
        assert [r.nnz_final for r in P.records] == P.M.column_nnz().tolist()

    @pytest.mark.parametrize("drop_mode", ["none", "adaptive"])
    def test_build_preconditioner(self, drop_mode):
        params = SaiParams(epsilon=0.05, l_max=8, drop_mode=drop_mode)
        if drop_mode == "none":
            columns = [bpsai_column(self.PERM, k, params)[0] for k in range(3)]
            assert sum(np.count_nonzero(vals == 0.0) for _, vals in columns) > 0
        P = build_preconditioner(self.PERM, params)
        assert [r.nnz_final for r in P.records] == P.M.column_nnz().tolist()


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
        assert not P.records[3].pre_drop_residual <= params.epsilon

    def test_static_build(self):
        A = self.matrix_with_zero_column(3)
        P = static_build(A, make_pattern(A, "iplusa", 2))
        assert P.M.column(3)[0].size == 0
        assert P.records[3].rank_flag


@pytest.mark.parametrize("build", [
    lambda A, threads: build_preconditioner(A, SaiParams(epsilon=0.3, l_max=2), threads=threads),
    lambda A, threads: static_build(A, make_pattern(A, "iplusa", 1), threads=threads),
], ids=["adaptive", "static"])
@pytest.mark.parametrize("threads, error, message", [
    (2.5, TypeError, "threads must be an integer, got 2.5"),
    (True, TypeError, "threads must be an integer, got True"),
    ("2", TypeError, "threads must be an integer, got '2'"),
    (-3, ValueError, "threads must be 0 or more, got -3"),
])
def test_threads_must_be_a_nonnegative_integer(build, threads, error, message):
    # these ran in-process before
    A = SparseMatrix.identity(4)
    with pytest.raises(error, match=message):
        build(A, threads)
    assert build(A, np.int64(0)).M.equals(A)


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


BUILDERS = {
    "adaptive": lambda A: build_preconditioner(A, SaiParams(epsilon=0.25, l_max=4)),
    "static": lambda A: static_build(A, make_pattern(A, "iplusa", 2)),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_spar_of_an_all_zero_matrix_is_nan(builder):
    # 0/0 has no density; the build itself succeeds with an empty M
    P = BUILDERS[builder](SparseMatrix.from_dense(np.zeros((3, 3))))
    assert P.M.nnz == 0 and np.isnan(P.spar)


class TestFloatingPointRange:
    """Builds at the ends of the double range: no spurious flags, and a
    column whose solution overflows is named."""

    @pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS.keys())
    def test_rank_flags_do_not_depend_on_scale(self, builder):
        rng = np.random.default_rng(5)
        dense = random_sparse(rng, 30, 0.15, diag_boost=2.0).to_dense()
        dense[:, 9] = dense[:, 4]  # equal columns: some blocks are rank-deficient
        flags = [rec.rank_flag for rec in builder(SparseMatrix.from_dense(dense)).records]
        assert any(flags) and not all(flags)
        for exponent in (511, 600):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                P = builder(SparseMatrix.from_dense(np.ldexp(dense, exponent)))
            assert [rec.rank_flag for rec in P.records] == flags

    @pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS.keys())
    def test_non_finite_solution_names_the_column(self, builder):
        # column 2 of A holds only a subnormal entry: 1 / 2.2e-313 overflows
        A = random_sparse(np.random.default_rng(0), 4, 0.25, diag_boost=2.2250738585e-313)
        assert A.column(2)[0].tolist() == [2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="column 2: the least-squares solution is not finite"):
                builder(A)

import logging
import re
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from conftest import REPO_ROOT, load_tool, random_sparse, random_well_conditioned
from saiprec.core import SparseMatrix
from saiprec.diagnostics import (_RefinedLU, check_nonsingular, quality_report,
                                 verify_drop_guarantees)
from saiprec.psai import SaiParams, build_preconditioner


def shrink_to_bound(M_dense, bound_1norm):
    """Zero the smallest entries of M until the removed part F obeys
    ||F||_1 <= bound; returns (M_d, F) as dense arrays."""
    F = np.zeros_like(M_dense)
    M_d = M_dense.copy()
    flat = [(abs(v), i, j) for (i, j), v in np.ndenumerate(M_dense) if v != 0.0]
    flat.sort()
    for _, i, j in flat:
        trial = F.copy()
        trial[i, j] = M_dense[i, j]
        if np.abs(trial).sum(axis=0).max() <= bound_1norm:
            F = trial
            M_d[i, j] = 0.0
    return M_d, F


class TestCheckNonsingular:
    def test_identity(self):
        ok, rcond = check_nonsingular(SparseMatrix.identity(6))
        assert ok and rcond == pytest.approx(1.0)

    def test_zero_column_is_singular(self):
        A = SparseMatrix.from_coo(3, 3, [0, 1], [0, 1], [1.0, 1.0])
        ok, rcond = check_nonsingular(A)
        assert not ok
        assert rcond == 0.0

    def test_nearly_singular(self):
        dense = np.eye(4)
        dense[3, 3] = 1e-18
        ok, _ = check_nonsingular(SparseMatrix.from_dense(dense))
        assert not ok

    @pytest.mark.parametrize("transpose", [False, True])
    def test_empty_column_or_row_skips_the_factorization(self, monkeypatch, transpose):
        # SuperLU makes illegal BLAS calls on some matrices with an empty
        # column and row, and the process can crash afterwards
        dense = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        M = SparseMatrix.from_dense(dense.T if transpose else dense)

        def no_splu(_):
            raise AssertionError("splu called")

        monkeypatch.setattr("saiprec.diagnostics.splu", no_splu)
        assert check_nonsingular(M) == (False, 0.0)

    def test_two_equal_columns_are_singular(self):
        dense = np.random.default_rng(3).uniform(1.0, 2.0, size=(6, 6))
        dense[:, 4] = dense[:, 1]
        ok, rcond = check_nonsingular(SparseMatrix.from_dense(dense))
        assert not ok and rcond <= len(dense) * EPS

    def test_well_conditioned_random_matrix_is_nonsingular(self):
        rng = np.random.default_rng(4)
        dense = np.eye(40) * 10.0 + rng.uniform(-1.0, 1.0, (40, 40)) * (rng.random((40, 40)) < 0.1)
        M = SparseMatrix.from_dense(dense)
        assert np.linalg.cond(dense) < 10.0
        ok, rcond = check_nonsingular(M)
        assert ok and dense_rcond(dense) * (1.0 - 1e-9) <= rcond <= 3.0 * dense_rcond(dense)

    def test_flag_is_python_bool(self):
        # the CLI writes Python bools as 1/0; a numpy.bool_ would print True/False
        for M in (SparseMatrix.identity(3), SparseMatrix.from_dense(np.diag([1.0, 1e-18]))):
            assert isinstance(check_nonsingular(M)[0], bool)

    def test_factors_are_never_read(self, monkeypatch):
        # the verdict and rcond come from the factor's solves alone
        class SolvesOnly:
            def __init__(self, lu):
                self.solve = lu.solve

            def __getattr__(self, name):
                raise AssertionError(f"check_nonsingular read lu.{name}")

        singular = np.random.default_rng(3).uniform(1.0, 2.0, size=(6, 6))
        singular[:, 4] = singular[:, 1]
        cases = [convection_diffusion_2d(6), SparseMatrix.from_dense(singular)]
        expected = [check_nonsingular(M) for M in cases]
        monkeypatch.setattr("saiprec.diagnostics.splu",
                            lambda S, **kw: SolvesOnly(splu(S, **kw)))
        assert [check_nonsingular(M) for M in cases] == expected

    def test_non_finite_solves_are_singular(self, monkeypatch):
        class NanSolves:
            def solve(self, b, trans="N"):
                return np.full(np.shape(b), np.nan)

        monkeypatch.setattr("saiprec.diagnostics.splu", lambda S, **kw: NanSolves())
        for m in (1, 4):  # n = 1 takes the exact norm, n = 16 the estimate
            assert check_nonsingular(convection_diffusion_2d(m)) == (False, 0.0)

    def test_global_random_state_is_left_alone(self):
        # the norm estimator draws from numpy's global generator
        M = convection_diffusion_2d(6)
        state = np.random.get_state()
        first = check_nonsingular(M)
        after = np.random.get_state()
        assert first == check_nonsingular(M)
        assert all(np.array_equal(x, y) for x, y in zip(state, after))


EPS = np.finfo(float).eps
ORDERINGS = ("COLAMD", "MMD_ATA", "MMD_AT_PLUS_A", "NATURAL")
# static builds of tools/compare_builds.py whose M is numerically singular
# (dense sigma_min/sigma_max between 2e-18 and 9e-16) but whose smallest LU
# pivot under COLAMD sits above n*eps*||M||_1
SINGULAR_BUILDS = ("small39-static-abs2", "small43-static-abs1", "small54-static-abs1",
                   "small62-static-abs1", "small71-static-abs3")


def convection_diffusion_2d(m: int) -> SparseMatrix:
    """Five-point upwind convection-diffusion on an m x m grid: a
    structurally symmetric pattern with unsymmetric values."""
    T = sp.diags([-1.3, 2.0, -0.7], [-1, 0, 1], shape=(m, m))
    return SparseMatrix.from_scipy(sp.kron(sp.identity(m), T) + sp.kron(T, sp.identity(m)))


def dense_rcond(dense: np.ndarray) -> float:
    """1 / (||M||_1 ||M^-1||_1) of a dense nonsingular M."""
    return 1.0 / (np.linalg.norm(dense, 1) * np.linalg.norm(np.linalg.inv(dense), 1))


def svd_ratio(M: SparseMatrix) -> float:
    s = np.linalg.svd(M.to_dense(), compute_uv=False)
    return s[-1] / s[0]


def forced_ordering(monkeypatch, ordering):
    """Make check_nonsingular factor with ``ordering`` whatever it asks for."""
    monkeypatch.setattr("saiprec.diagnostics.splu",
                        lambda S, permc_spec=None, **kw: splu(S, permc_spec=ordering, **kw))


def recorded_orderings(monkeypatch, factor=splu) -> list:
    """The ``permc_spec`` of every factorization check_nonsingular asks for,
    each made by ``factor``."""
    seen = []

    def recording(S, permc_spec=None, **kw):
        seen.append(permc_spec)
        return factor(S, permc_spec=permc_spec, **kw)

    monkeypatch.setattr("saiprec.diagnostics.splu", recording)
    return seen


def symmetric_mode(kw) -> bool:
    return bool(kw.get("options", {}).get("SymmetricMode"))


def faulty_symmetric_mode(fault):
    """A factorization whose symmetric-mode LU returns ``fault(x)`` for each
    solution x; other LUs are left exact."""
    class Faulty:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b, trans="N"):
            return fault(self.lu.solve(b, trans=trans))

    def factor(S, **kw):
        lu = splu(S, **kw)
        return Faulty(lu) if symmetric_mode(kw) else lu

    return factor


def convection_diffusion_patterns():
    """The structurally symmetric 8 x 8-grid operator and the same with one
    entry added above the diagonal, which makes its pattern unsymmetric."""
    dense = convection_diffusion_2d(8).to_dense()
    dense[0, 40] = 0.5
    return {"symmetric": convection_diffusion_2d(8), "unsymmetric": SparseMatrix.from_dense(dense)}


@pytest.fixture(scope="module")
def singular_builds():
    """M of each of SINGULAR_BUILDS, built by the harness's own thunks."""
    harness = load_tool("compare_builds")
    # the harness imports perfbench's generators
    with mock.patch.object(sys, "path", [str(REPO_ROOT / "perfbench"), *sys.path]):
        return {name: dict((label, P) for label, P, _ in build())["M"].M
                for name, build in harness._configs() if name in SINGULAR_BUILDS}


class TestOrderingFreeVerdict:
    @pytest.mark.parametrize("name", SINGULAR_BUILDS)
    def test_numerically_singular_builds(self, singular_builds, monkeypatch, name):
        M = singular_builds[name]
        assert svd_ratio(M) <= M.nrows * EPS
        assert check_nonsingular(M)[0] is False
        for ordering in ORDERINGS:
            forced_ordering(monkeypatch, ordering)
            assert check_nonsingular(M)[0] is False, ordering

    def test_symmetric_pattern_takes_mmd_at_plus_a(self, monkeypatch):
        M = convection_diffusion_2d(8)
        assert not np.array_equal(M.to_dense(), M.to_dense().T)
        seen = recorded_orderings(monkeypatch)
        assert check_nonsingular(M)[0] is True
        assert seen == ["MMD_AT_PLUS_A"]

    @pytest.mark.parametrize("pattern", ["symmetric", "unsymmetric"])
    def test_every_pattern_is_factored_once_in_symmetric_mode(self, monkeypatch, pattern):
        M = convection_diffusion_patterns()[pattern]
        calls = []

        def recording(S, **kw):
            calls.append(kw)
            return splu(S, **kw)

        monkeypatch.setattr("saiprec.diagnostics.splu", recording)
        assert check_nonsingular(M)[0] is True
        assert len(calls) == 1
        assert calls[0]["permc_spec"] == "MMD_AT_PLUS_A" and symmetric_mode(calls[0])
        assert calls[0]["diag_pivot_thresh"] <= 0.01

    @pytest.mark.parametrize("pattern", ["symmetric", "unsymmetric"])
    def test_an_inaccurate_symmetric_mode_solve_is_refactored(self, monkeypatch, pattern):
        # diagonal pivoting has no growth bound; a solve that returns twice
        # the solution is one that refinement cannot repair: its iterates
        # alternate between twice the solution and zero
        M = convection_diffusion_patterns()[pattern]
        seen = recorded_orderings(monkeypatch, faulty_symmetric_mode(lambda x: 2.0 * x))
        ok, rcond = check_nonsingular(M)
        assert seen == ["MMD_AT_PLUS_A", "COLAMD"]
        assert ok is bool(svd_ratio(M) > M.nrows * EPS)
        dense = M.to_dense()
        assert dense_rcond(dense) * (1.0 - 1e-9) <= rcond <= 3.0 * dense_rcond(dense)

    @pytest.mark.parametrize("pattern", ["symmetric", "unsymmetric"])
    def test_a_slightly_inaccurate_symmetric_mode_solve_is_refined(self, monkeypatch, pattern):
        # a relative error of 1e-6 in every solve leaves a backward error far
        # above 10*n*eps, but each correction shrinks it by about 1e-6
        M = convection_diffusion_patterns()[pattern]
        seen = recorded_orderings(monkeypatch, faulty_symmetric_mode(
            lambda x: x + (1e-6 * np.cos(np.arange(len(x))) * x.T).T))
        ok, rcond = check_nonsingular(M)
        assert seen == ["MMD_AT_PLUS_A"]
        assert ok is bool(svd_ratio(M) > M.nrows * EPS)
        dense = M.to_dense()
        assert dense_rcond(dense) * (1.0 - 1e-9) <= rcond <= 3.0 * dense_rcond(dense)

    def test_a_failed_symmetric_mode_factorization_is_retried(self, monkeypatch):
        def factor(S, **kw):
            if len(seen) == 1:  # the first call
                raise RuntimeError("Factor is exactly singular")
            return splu(S, **kw)

        M = convection_diffusion_2d(8)
        seen = recorded_orderings(monkeypatch, factor)
        ok, rcond = check_nonsingular(M)
        assert seen == ["MMD_AT_PLUS_A", "COLAMD"]
        assert ok and rcond >= dense_rcond(M.to_dense()) * (1.0 - 1e-9)


def with_smallest_singular_value(M: SparseMatrix, ratio: float) -> SparseMatrix:
    """M with its smallest singular value set to ``ratio`` times its largest."""
    u, s, vt = np.linalg.svd(M.to_dense())
    s[-1] = s[0] * ratio
    return SparseMatrix.from_dense((u * s) @ vt)


class TestSinglePrecisionFactor:
    @pytest.mark.parametrize("k", [-300, -140, 0, 140, 300])
    def test_a_power_of_two_scaling_changes_nothing(self, monkeypatch, k):
        # unscaled, M * 2**140 overflows float32 and M * 2**-140 flushes in it
        M = convection_diffusion_patterns()["unsymmetric"]
        expected = check_nonsingular(M)
        scaled = SparseMatrix.from_scipy(M.to_scipy() * 2.0**k)
        seen = recorded_orderings(monkeypatch)
        ok, rcond = check_nonsingular(scaled)
        assert seen == ["MMD_AT_PLUS_A"]  # the single-precision factor decided
        assert ok is expected[0] is True
        assert rcond == pytest.approx(expected[1], rel=1e-12)

    def test_an_ill_conditioned_matrix_falls_back_to_colamd(self, monkeypatch):
        # kappa_1 about 1.7e9, far beyond 2**24: the single-precision LU's
        # corrections do not bring a solve to 4*eps within the cap
        M = with_smallest_singular_value(convection_diffusion_2d(8), 1e-9)
        dense = M.to_dense()
        cond = np.linalg.cond(dense, 1)
        assert 1e9 <= cond <= 1e10
        seen = recorded_orderings(monkeypatch)
        ok, rcond = check_nonsingular(M)
        assert seen == ["MMD_AT_PLUS_A", "COLAMD"]
        slack = 1e-9 + M.nrows * cond * EPS
        assert ok and dense_rcond(dense) * (1.0 - slack) <= rcond <= 3.0 * dense_rcond(dense)

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_refined_solves_reach_rounding_level_backward_error(self, trans):
        M = with_smallest_singular_value(convection_diffusion_patterns()["unsymmetric"], 1e-5)
        S = M.to_scipy()
        op = S.T if trans == "T" else S
        norm = np.abs(op.toarray()).sum(axis=0).max()  # ||M^T||_1 = ||M||_inf
        X = np.random.default_rng(5).standard_normal((M.nrows, 3))

        def backward_errors(W):
            residual = np.abs(X - op @ W).sum(axis=0)
            return residual / (norm * np.abs(W).sum(axis=0) + np.abs(X).sum(axis=0))

        lu = _RefinedLU(S, M.one_norm())
        assert backward_errors(lu._single(X, trans)).min() > 1e3 * EPS
        W = lu.solve(X, trans)
        assert lu.corrections >= 1
        assert backward_errors(W).max() <= 4.0 * EPS
        assert np.array_equal(lu.solve(X[:, 0], trans), W[:, 0])  # a vector as a one-column block
        for k in (-200, 200):  # right-hand sides outside float32's range are cast after scaling
            assert np.array_equal(lu.solve(np.ldexp(X, k), trans), np.ldexp(W, k))


class TestDebugRecord:
    def test_silent_by_default(self, caplog):
        check_nonsingular(convection_diffusion_2d(6))
        assert not caplog.records

    def test_names_the_factor_the_corrections_and_eta(self, caplog):
        caplog.set_level(logging.DEBUG, logger="saiprec")
        check_nonsingular(convection_diffusion_2d(6))
        (record,) = caplog.records
        assert record.name == "saiprec" and record.levelno == logging.DEBUG
        message = record.getMessage()
        assert "single-precision symmetric-mode LU decided" in message
        assert re.search(r"[1-9]\d* corrections, eta \S+$", message)

    def test_names_the_fallback_and_why(self, caplog, monkeypatch):
        recorded_orderings(monkeypatch, faulty_symmetric_mode(lambda x: 2.0 * x))
        caplog.set_level(logging.DEBUG, logger="saiprec")
        check_nonsingular(convection_diffusion_2d(6))
        (record,) = caplog.records
        message = record.getMessage()
        assert "double COLAMD LU decided" in message
        assert "did not converge in" in message and "0 corrections" in message


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(n=st.integers(3, 16), seed=st.integers(0, 2**32 - 1), density=st.floats(0.2, 0.8),
       decades=st.one_of(st.integers(0, 12), st.integers(18, 26)), combined=st.booleans())
def test_verdict_matches_the_svd_away_from_the_threshold(n, seed, density, decades, combined):
    # the last column is a part of size 10**-decades, added to a combination
    # of two other columns or alone, so sigma_min/sigma_max spans both sides
    # of n*eps
    rng = np.random.default_rng(seed)
    dense = random_sparse(rng, n, density, diag_boost=2.0).to_dense()
    mix = rng.standard_normal() * dense[:, 0] + rng.standard_normal() * dense[:, 1]
    dense[:, -1] = combined * mix + 10.0 ** -decades * rng.standard_normal(n)
    M = SparseMatrix.from_dense(dense)
    assume(M.column_nnz().all() and np.bincount(M.row_idx, minlength=n).all())
    ratio = svd_ratio(M)
    assume(not n * EPS / 1e3 < ratio < n * EPS * 1e3)
    assert check_nonsingular(M)[0] is bool(ratio > n * EPS)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(n=st.integers(4, 24), seed=st.integers(0, 2**32 - 1), density=st.floats(0.2, 0.8),
       decades=st.integers(0, 7), combined=st.booleans())
def test_rcond_brackets_the_dense_value(n, seed, density, decades, combined):
    # the estimate of ||M^-1||_1 never overstates it, so rcond is never
    # below the dense value, up to the rounding of both inverses (about
    # n * cond * eps relative); on these draws it stays within a factor of 3
    rng = np.random.default_rng(seed)
    dense = random_sparse(rng, n, density, diag_boost=2.0).to_dense()
    mix = dense[:, :-1] @ rng.standard_normal(n - 1)
    dense[:, -1] = combined * mix + 10.0 ** -decades * rng.standard_normal(n)
    M = SparseMatrix.from_dense(dense)
    assume(M.column_nnz().all() and np.bincount(M.row_idx, minlength=n).all())
    cond = np.linalg.cond(dense, 1)
    assume(cond < 1e8)
    ok, rcond = check_nonsingular(M)
    slack = 1e-9 + n * cond * EPS
    assert ok and dense_rcond(dense) * (1.0 - slack) <= rcond <= 3.0 * dense_rcond(dense)


class TestQualityReport:
    def test_identity_pair(self):
        A = SparseMatrix.identity(5)
        P = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=3))
        rep = quality_report(A, P, epsilon=0.3)
        assert rep.r_max == pytest.approx(0.0, abs=1e-15)
        assert rep.coln == 0
        assert rep.am_minus_i_one_norm == pytest.approx(0.0, abs=1e-15)
        assert rep.p == 0
        assert rep.nonsingular

    def test_one_norm_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = random_well_conditioned(rng, 10, density=0.5)
            P = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=8))
            rep = quality_report(A, P, epsilon=0.3)
            dense = np.abs(A.to_dense() @ P.M.to_dense() - np.eye(10)).sum(axis=0).max()
            assert rep.am_minus_i_one_norm == pytest.approx(dense, abs=1e-12)

    def test_recomputed_metrics_match_records(self):
        rng = np.random.default_rng(7)
        A = random_sparse(rng, 15, 0.3, diag_boost=2.0)
        P = build_preconditioner(A, SaiParams(epsilon=0.25, l_max=8))
        rep = quality_report(A, P, epsilon=0.25)
        assert rep.coln == sum(r.pre_drop_residual > 0.25 for r in P.records)
        assert rep.r_max == max(r.pre_drop_residual for r in P.records)
        # recomputed post-drop residuals agree with the records
        for k, rec in enumerate(P.records):
            assert rep.per_column_residuals[k] == pytest.approx(
                rec.post_drop_residual, abs=1e-10
            )

    @pytest.mark.parametrize("epsilon", [2.0, 1.0, 0.0, -1.0, np.nan])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        # epsilon 2.0 counted no column as missing it (coln 0), and -1.0
        # made every guarantee check "not applicable"
        A = SparseMatrix.identity(4)
        P = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=3))
        with pytest.raises(ValueError, match="epsilon must lie in"):
            quality_report(A, P, epsilon)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            verify_drop_guarantees(A, P.M, P.M, epsilon)

    def test_mismatched_shapes_rejected(self):
        # a 5x5 A against a 4x4 M failed inside scipy's matmul
        P4 = build_preconditioner(SparseMatrix.identity(4), SaiParams(epsilon=0.3, l_max=3))
        A5 = SparseMatrix.identity(5)
        P5 = build_preconditioner(A5, SaiParams(epsilon=0.3, l_max=3))
        with pytest.raises(ValueError, match="M is 4x4 but A is 5x5"):
            quality_report(A5, P4, 0.3)
        with pytest.raises(ValueError, match="the reference M is 4x4 but A is 5x5"):
            quality_report(A5, P5, 0.3, reference=P4)

    def test_reference_distinguishes_p(self):
        rng = np.random.default_rng(9)
        A = random_well_conditioned(rng, 12, density=0.4)
        dropped = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=8))
        plain = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=8, drop_mode="none"))
        rep = quality_report(A, dropped, epsilon=0.3, reference=plain)
        assert rep.p >= 0 and rep.p_d >= 0


class TestVerifyDropGuarantees:
    def test_mismatched_shapes_rejected(self):
        I4, I5 = SparseMatrix.identity(4), SparseMatrix.identity(5)
        with pytest.raises(ValueError, match="M is 4x4 but A is 5x5"):
            verify_drop_guarantees(I5, I4, I5, 0.3)
        with pytest.raises(ValueError, match="M_d is 4x4 but A is 5x5"):
            verify_drop_guarantees(I5, I5, I4, 0.3)

    def test_no_dropping_all_pass(self):
        rng = np.random.default_rng(11)
        A = random_well_conditioned(rng, 10, density=0.6)
        P = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=10, drop_mode="none"))
        checks = verify_drop_guarantees(A, P.M, P.M, epsilon=0.3)
        for chk in checks:
            if chk.applicable:
                assert chk.passed, chk

    def test_constructed_f_satisfies_doubling(self):
        rng = np.random.default_rng(13)
        passes = 0
        for _ in range(10):
            n = 10
            A = random_well_conditioned(rng, n, density=0.6)
            dense = A.to_dense()
            eps = 0.3
            M_dense = np.linalg.inv(dense)
            # perturb, then verify the hypothesis actually holds
            M_dense += rng.standard_normal((n, n)) * eps / (4 * n * np.abs(dense).sum(axis=0).max())
            if np.abs(dense @ M_dense - np.eye(n)).sum(axis=0).max() > eps:
                continue
            M_d_dense, F = shrink_to_bound(M_dense, eps / A.one_norm())
            M = SparseMatrix.from_dense(M_dense)
            M_d = SparseMatrix.from_dense(M_d_dense)
            checks = {c.name: c for c in verify_drop_guarantees(A, M, M_d, eps)}
            chk = checks["residual_doubling_matrix_norm"]
            assert chk.applicable
            assert chk.passed
            passes += 1
        assert passes >= 5

    def test_dropped_inverse_factored_once(self, monkeypatch):
        # both nonsingularity checks apply; they share one LU of M_d
        n = 30
        A = SparseMatrix.from_dense(4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
        M = SparseMatrix.from_dense(np.linalg.inv(A.to_dense()))
        calls = []

        def counting(X):
            calls.append(X)
            return check_nonsingular(X)

        monkeypatch.setattr("saiprec.diagnostics.check_nonsingular", counting)
        checks = {c.name: c for c in verify_drop_guarantees(A, M, M, epsilon=0.3)}
        for name in ("dropped_inverse_nonsingular", "residual_doubling_matrix_norm"):
            assert checks[name].applicable and checks[name].passed
        assert len(calls) == 1 and calls[0] is M

    def test_violated_hypothesis_is_not_applicable(self):
        rng = np.random.default_rng(17)
        A = random_well_conditioned(rng, 8, density=0.7)
        eps = 0.2
        M_dense = np.linalg.inv(A.to_dense())
        # scale an off-diagonal F to overshoot the bound by exactly 100x
        F = M_dense - np.diag(np.diagonal(M_dense))
        F *= (100.0 * eps / A.one_norm()) / np.abs(F).sum(axis=0).max()
        checks = {c.name: c for c in verify_drop_guarantees(
            A, SparseMatrix.from_dense(M_dense), SparseMatrix.from_dense(M_dense - F), eps
        )}
        chk = checks["residual_doubling_matrix_norm"]
        assert not chk.applicable
        assert chk.passed is None

    def test_builds_never_fail_applicable_conclusions(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            A = random_sparse(rng, 12, 0.3, diag_boost=2.0)
            plain = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=10, drop_mode="none"))
            dropped = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=10))
            checks = verify_drop_guarantees(A, plain.M, dropped.M, epsilon=0.3)
            for chk in checks:
                if chk.applicable:
                    assert chk.passed, chk


class TestLeftSideQuality:
    def test_left_build_residuals_recomputed_against_transpose(self):
        rng = np.random.default_rng(23)
        A = random_well_conditioned(rng, 10, density=0.5)
        P = build_preconditioner(A, SaiParams(epsilon=0.25, l_max=8, side="left"))
        rep = quality_report(A, P, epsilon=0.25)
        # records describe columns of the transpose-side build; the report
        # must recompute against the same operand
        for k, rec in enumerate(P.records):
            assert rep.per_column_residuals[k] == pytest.approx(
                rec.post_drop_residual, abs=1e-10
            )
        assert rep.coln == sum(r.pre_drop_residual > 0.25 for r in P.records)

import numpy as np
import pytest

from conftest import random_sparse, random_well_conditioned
from saiprec.core import SparseMatrix
from saiprec.diagnostics import check_nonsingular, quality_report, verify_drop_guarantees
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
        ok, pivot = check_nonsingular(SparseMatrix.identity(6))
        assert ok and pivot == pytest.approx(1.0)

    def test_zero_column_is_singular(self):
        A = SparseMatrix.from_coo(3, 3, [0, 1], [0, 1], [1.0, 1.0])
        ok, pivot = check_nonsingular(A)
        assert not ok
        assert pivot == 0.0

    def test_nearly_singular(self):
        dense = np.eye(4)
        dense[3, 3] = 1e-18
        ok, _ = check_nonsingular(SparseMatrix.from_dense(dense))
        assert not ok

    def test_flag_is_python_bool(self):
        # the CLI writes Python bools as 1/0; a numpy.bool_ would print True/False
        for M in (SparseMatrix.identity(3), SparseMatrix.from_dense(np.diag([1.0, 1e-18]))):
            assert isinstance(check_nonsingular(M)[0], bool)


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

    def test_reference_distinguishes_p(self):
        rng = np.random.default_rng(9)
        A = random_well_conditioned(rng, 12, density=0.4)
        dropped = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=8))
        plain = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=8, drop_mode="none"))
        rep = quality_report(A, dropped, epsilon=0.3, reference=plain)
        assert rep.p >= 0 and rep.p_d >= 0


class TestVerifyDropGuarantees:
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

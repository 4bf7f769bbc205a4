import numpy as np
import pytest

from conftest import random_sparse, random_well_conditioned
from saiprec.core import SparseMatrix
from saiprec.krylov import SolveParams, bicgstab, gmres_restart
from saiprec.psai import SaiParams, build_preconditioner


def true_rel_residual(A, x, b):
    return np.linalg.norm(b - A.to_dense() @ x) / np.linalg.norm(b)


class TestBicgstab:
    def test_identity(self):
        A = SparseMatrix.identity(5)
        b = np.arange(1.0, 6.0)
        x, rep = bicgstab(A, b, params=SolveParams(side="none"))
        assert rep.converged
        assert rep.iters <= 1.0
        assert np.allclose(x, b, atol=1e-12)

    def test_random_spd_matches_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            base = rng.standard_normal((12, 12))
            dense = base @ base.T + 12.0 * np.eye(12)
            A = SparseMatrix.from_dense(dense)
            b = A.matvec(np.ones(12))
            x, rep = bicgstab(A, b, params=SolveParams(side="none"))
            assert rep.converged
            direct = np.linalg.solve(dense, b)
            assert true_rel_residual(A, x, b) < 1e-8
            assert np.allclose(x, direct, atol=1e-6)

    def test_half_step_possible(self):
        # iteration counts may end in .5 when the half step converges
        rng = np.random.default_rng(7)
        seen_half = False
        for _ in range(30):
            A = random_well_conditioned(rng, 10, density=0.6)
            b = A.matvec(np.ones(10))
            _, rep = bicgstab(A, b, params=SolveParams(side="none"))
            if rep.converged and rep.iters % 1.0 == 0.5:
                seen_half = True
                break
        assert seen_half

    def test_true_residual_enforced(self):
        rng = np.random.default_rng(9)
        A = random_well_conditioned(rng, 12, density=0.5)
        b = A.matvec(np.ones(12))
        x, rep = bicgstab(A, b, params=SolveParams(side="none"))
        assert rep.converged
        assert true_rel_residual(A, x, b) < 1e-8
        assert rep.final_rel_residual == pytest.approx(true_rel_residual(A, x, b), rel=1e-6)

    def test_max_iters_flagged(self):
        rng = np.random.default_rng(11)
        A = random_sparse(rng, 20, 0.3, diag_boost=0.05)
        b = A.matvec(np.ones(20))
        _, rep = bicgstab(A, b, params=SolveParams(side="none", max_iters=2))
        assert not rep.converged

    def test_matvec_count_two_per_step(self):
        rng = np.random.default_rng(13)
        A = random_well_conditioned(rng, 10, density=0.6)
        b = A.matvec(np.ones(10))
        _, rep = bicgstab(A, b, params=SolveParams(side="none"))
        # two products per full step plus the final true-residual checks
        assert rep.matvecs <= 2 * int(np.ceil(rep.iters)) + 2 + len(rep.residual_history)


class TestGmres:
    def test_identity(self):
        A = SparseMatrix.identity(4)
        b = np.ones(4)
        x, rep = gmres_restart(A, b, params=SolveParams(method="gmres", side="none"))
        assert rep.converged
        assert rep.iters == 1.0
        assert np.allclose(x, b, atol=1e-12)

    def test_random_matches_direct_no_restart(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            A = random_well_conditioned(rng, 12, density=0.5)
            b = A.matvec(np.ones(12))
            x, rep = gmres_restart(
                A, b, params=SolveParams(method="gmres", restart=12, side="none")
            )
            assert rep.converged
            assert rep.iters <= 12
            assert np.allclose(x, np.ones(12), atol=1e-6)

    def test_inner_residual_monotone_within_cycle(self):
        rng = np.random.default_rng(17)
        A = random_well_conditioned(rng, 12, density=0.5)
        b = A.matvec(np.ones(12))
        _, rep = gmres_restart(
            A, b, params=SolveParams(method="gmres", restart=12, side="none")
        )
        hist = rep.residual_history
        assert all(hist[i + 1] <= hist[i] + 1e-14 for i in range(len(hist) - 1))

    def test_restart_cycles_counted_as_inner_steps(self):
        rng = np.random.default_rng(19)
        A = random_well_conditioned(rng, 12, density=0.5, cond_cap=1e3)
        b = A.matvec(np.ones(12))
        _, rep = gmres_restart(
            A, b, params=SolveParams(method="gmres", restart=3, side="none")
        )
        assert rep.converged
        assert rep.iters == len(rep.residual_history)
        assert rep.iters > 3  # forced at least one restart

    def test_stagnation_flagged(self):
        # singular system with b outside the range: GMRES cannot progress
        dense = np.zeros((4, 4))
        dense[0, 0] = dense[1, 1] = dense[2, 2] = 1.0
        A = SparseMatrix.from_coo(4, 4, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        _, rep = gmres_restart(
            A, b, params=SolveParams(method="gmres", restart=4, side="none", max_iters=50)
        )
        assert not rep.converged


class TestPreconditionedSolves:
    def test_identity_preconditioner_equivalence(self):
        rng = np.random.default_rng(21)
        A = random_well_conditioned(rng, 12, density=0.5)
        b = A.matvec(np.ones(12))
        M = SparseMatrix.identity(12)
        for method, fn in (("bicgstab", bicgstab), ("gmres", gmres_restart)):
            x_plain, rep_plain = fn(A, b, params=SolveParams(method=method, side="none"))
            x_right, rep_right = fn(A, b, M=M, params=SolveParams(method=method, side="right"))
            x_left, rep_left = fn(A, b, M=M, params=SolveParams(method=method, side="left"))
            assert np.allclose(x_plain, x_right, atol=1e-13, rtol=0)
            assert np.allclose(x_plain, x_left, atol=1e-13, rtol=0)
            assert rep_plain.iters == rep_right.iters == rep_left.iters

    def test_sai_preconditioner_accelerates(self):
        rng = np.random.default_rng(23)
        A = random_sparse(rng, 40, 0.12, diag_boost=2.5)
        b = A.matvec(np.ones(40))
        P = build_preconditioner(A, SaiParams(epsilon=0.2, l_max=8))
        for method, fn in (("bicgstab", bicgstab), ("gmres", gmres_restart)):
            x_plain, rep_plain = fn(A, b, params=SolveParams(method=method, side="none"))
            x_prec, rep_prec = fn(A, b, M=P, params=SolveParams(method=method, side="right"))
            assert rep_prec.converged
            assert true_rel_residual(A, x_prec, b) < 1e-8
            if rep_plain.converged:
                assert rep_prec.iters <= rep_plain.iters

    def test_left_preconditioning(self):
        rng = np.random.default_rng(29)
        A = random_well_conditioned(rng, 15, density=0.4)
        b = A.matvec(np.ones(15))
        P = build_preconditioner(A, SaiParams(epsilon=0.2, l_max=8, side="left"))
        for method, fn in (("bicgstab", bicgstab), ("gmres", gmres_restart)):
            x, rep = fn(A, b, M=P, params=SolveParams(method=method, side="left"))
            assert rep.converged
            assert true_rel_residual(A, x, b) < 1e-8

    def test_solve_report_counts(self):
        rng = np.random.default_rng(31)
        A = random_well_conditioned(rng, 10, density=0.5)
        b = A.matvec(np.ones(10))
        P = build_preconditioner(A, SaiParams(epsilon=0.2, l_max=8))
        _, rep = bicgstab(A, b, M=P, params=SolveParams(side="right"))
        assert rep.converged
        assert rep.matvecs > 0
        assert rep.precond_applies > 0


class TestEdgeCases:
    def test_bicgstab_breakdown_flagged(self):
        # rotation matrix: the shadow residual is orthogonal to A p at once
        A = SparseMatrix.from_dense([[0.0, 1.0], [-1.0, 0.0]])
        b = np.array([1.0, 0.0])
        _, rep = bicgstab(A, b, params=SolveParams(side="none"))
        assert rep.breakdown
        assert not rep.converged

    def test_zero_rhs_trivially_converged(self):
        A = SparseMatrix.identity(3)
        for fn, method in ((bicgstab, "bicgstab"), (gmres_restart, "gmres")):
            x, rep = fn(A, np.zeros(3), params=SolveParams(method=method, side="none"))
            assert rep.converged
            assert np.array_equal(x, np.zeros(3))

    def test_gmres_stagnation_on_unreachable_rhs(self):
        A = SparseMatrix.from_coo(4, 4, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        _, rep = gmres_restart(
            A, b, params=SolveParams(method="gmres", restart=4, side="none", max_iters=50)
        )
        assert rep.stagnated
        assert not rep.converged
        assert rep.iters < 50 * 4  # stopped early rather than burning the cap


class TestRightHandSideValidation:
    @pytest.mark.parametrize("fn, method", [(bicgstab, "bicgstab"), (gmres_restart, "gmres")])
    def test_rejects_nan_rhs(self, fn, method):
        b = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            fn(SparseMatrix.identity(3), b, params=SolveParams(method=method, side="none"))

    @pytest.mark.parametrize("fn, method", [(bicgstab, "bicgstab"), (gmres_restart, "gmres")])
    def test_rejects_wrong_length_rhs(self, fn, method):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            fn(SparseMatrix.identity(3), np.ones(4), params=SolveParams(method=method, side="none"))

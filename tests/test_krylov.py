import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_sparse, random_well_conditioned
from saiprec import krylov
from saiprec.core import SparseMatrix
from saiprec.krylov import SolveParams, _Operators, bicgstab, gmres_restart, solve
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

    def test_no_product_at_the_initial_guess(self):
        # the first cycle's residual at x = 0 is b itself; each inner step
        # then takes one product with A and M, and the accepted iterate one more
        rng = np.random.default_rng(19)
        A = random_well_conditioned(rng, 12, density=0.5, cond_cap=1e3)
        M = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=4))
        _, rep = gmres_restart(A, A.matvec(np.ones(12)), M=M,
                               params=SolveParams(method="gmres", side="right"))
        assert rep.converged and rep.iters == len(rep.residual_history) < 50
        assert rep.matvecs == rep.precond_applies == rep.iters + 1

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

    @pytest.mark.parametrize("method, fn", [("bicgstab", bicgstab), ("gmres", gmres_restart)])
    def test_preconditioner_side_must_match(self, method, fn):
        A = random_well_conditioned(np.random.default_rng(37), 10, density=0.5)
        P = build_preconditioner(A, SaiParams(epsilon=0.2, l_max=8, side="left"))
        for side in ("right", "none"):
            with pytest.raises(ValueError, match="left-side preconditioner"):
                fn(A, A.matvec(np.ones(10)), M=P, params=SolveParams(method=method, side=side))

    @pytest.mark.parametrize("method, fn", [("bicgstab", bicgstab), ("gmres", gmres_restart)])
    def test_plain_matrix_rejected_without_side(self, method, fn):
        # side "none" would ignore M and solve unpreconditioned
        A = random_well_conditioned(np.random.default_rng(39), 10, density=0.5)
        with pytest.raises(ValueError, match="preconditioner was given with side='none'"):
            fn(A, A.matvec(np.ones(10)), M=SparseMatrix.identity(10),
               params=SolveParams(method=method, side="none"))
        with pytest.raises(ValueError, match="preconditioner was given with side='none'"):
            solve(A, A.matvec(np.ones(10)), M=SparseMatrix.identity(10),
                  params=SolveParams(method=method, side="none"))

    @pytest.mark.parametrize("method, fn", [("bicgstab", bicgstab), ("gmres", gmres_restart)])
    def test_nonsquare_matrix_rejected(self, method, fn):
        A = SparseMatrix.from_dense(np.arange(1.0, 13.0).reshape(3, 4))
        with pytest.raises(ValueError, match=r"A must be square, got shape \(3, 4\)"):
            fn(A, np.ones(3), params=SolveParams(method=method, side="none"))

    @pytest.mark.parametrize("method, fn", [("bicgstab", bicgstab), ("gmres", gmres_restart)])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_preconditioner_shape_must_match(self, method, fn, side):
        A = random_well_conditioned(np.random.default_rng(41), 10, density=0.5)
        for M in (SparseMatrix.identity(12),
                  SparseMatrix.from_dense(np.ones((10, 12))),
                  build_preconditioner(SparseMatrix.identity(12), SaiParams(side=side))):
            with pytest.raises(ValueError, match=r"preconditioner has shape \(\d+, 12\), "
                                                 r"A has shape \(10, 10\)"):
                fn(A, A.matvec(np.ones(10)), M=M, params=SolveParams(method=method, side=side))

    def test_solve_report_counts(self):
        rng = np.random.default_rng(31)
        A = random_well_conditioned(rng, 10, density=0.5)
        b = A.matvec(np.ones(10))
        P = build_preconditioner(A, SaiParams(epsilon=0.2, l_max=8))
        _, rep = bicgstab(A, b, M=P, params=SolveParams(side="right"))
        assert rep.converged
        assert rep.matvecs > 0
        assert rep.precond_applies > 0


class TestBoundaryTypes:
    @pytest.mark.parametrize("fn", [solve, bicgstab, gmres_restart])
    def test_a_must_be_a_sparse_matrix(self, fn):
        A = random_well_conditioned(np.random.default_rng(43), 6, density=0.5)
        for bad, name in ((A.to_scipy(), "csc_matrix"), (A.to_csr(), "csr_matrix"),
                          (A.to_dense(), "ndarray")):
            with pytest.raises(TypeError, match=f"A must be a SparseMatrix, got {name}"):
                fn(bad, np.ones(6), params=SolveParams(side="none"))

    @pytest.mark.parametrize("fn", [solve, bicgstab, gmres_restart])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_m_must_be_a_sparse_matrix_or_a_preconditioner(self, fn, side):
        A = random_well_conditioned(np.random.default_rng(47), 6, density=0.5)
        I = SparseMatrix.identity(6)
        for bad, name in ((I.to_scipy(), "csc_matrix"), (I.to_csr(), "csr_matrix"),
                          (np.eye(6), "ndarray")):
            with pytest.raises(TypeError, match="M must be None, a SparseMatrix or a "
                                                f"Preconditioner, got {name}"):
                fn(A, np.ones(6), M=bad, params=SolveParams(side=side))


def random_csr(rng, n: int, index_dtype) -> sp.csr_matrix:
    """A random n x n CSR matrix with some empty rows, on the given index type."""
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    dense[rng.random(n) < 0.3] = 0.0
    dense[0] = 0.0  # at least one empty row
    S = sp.csr_matrix(dense)
    S.indptr, S.indices = S.indptr.astype(index_dtype), S.indices.astype(index_dtype)
    return S


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestProducts:
    """The products write ``S @ x`` into a work vector, bit for bit, and are
    counted as before."""

    def test_kernel_is_the_one_behind_csr_matrix_times_vector(self):
        # a private scipy name: this test fails first if scipy moves it
        from scipy.sparse import _sparsetools
        assert krylov._csr_matvec is _sparsetools.csr_matvec
        S = random_csr(np.random.default_rng(53), 9, np.int32)
        assert same_bits(krylov._product(S, np.arange(9.0), None), S @ np.arange(9.0))

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("side", ["right", "left", "none"])
    def test_products_into_a_reused_vector(self, index_dtype, side):
        rng = np.random.default_rng(59)
        n = 30
        M = SparseMatrix.identity(n) if side != "none" else None
        ops = _Operators(SparseMatrix.identity(n), np.ones(n), M, SolveParams(side=side))
        out = np.full(n, np.nan)  # stale contents
        for _ in range(10):
            # the kernel takes either index type; scipy uses int64 past 2**31 entries
            ops.A, ops.M = random_csr(rng, n, index_dtype), random_csr(rng, n, index_dtype)
            assert ops.A.indices.dtype == ops.M.indptr.dtype == index_dtype
            x = rng.standard_normal(n)
            matvecs, applies = ops.matvecs, ops.precond_applies
            assert ops.apply_a(x, out) is out and same_bits(out, ops.A @ x)
            assert ops.apply_m(x, out) is out and same_bits(out, ops.M @ x)
            fresh = ops.apply_a(x)
            assert fresh is not out and same_bits(fresh, ops.A @ x)
            expected = {"right": ops.A @ (ops.M @ x), "left": ops.M @ (ops.A @ x),
                        "none": ops.A @ x}[side]
            assert ops.op(x, out) is out and same_bits(out, expected)
            assert same_bits(ops.op(x), expected)
            extra = 0 if side == "none" else 2
            assert ops.matvecs == matvecs + 4 and ops.precond_applies == applies + 1 + extra


def allocating_bicgstab(A, b, M, side, rel_tol=1e-8, max_iters=1000):
    """The solver's arithmetic on the main path, one new array per expression
    and scipy's ``@`` for every product: the reference for its work vectors."""
    A, M = A.to_csr(), M.M.to_csr() if M is not None else None
    op = {"right": lambda v: A @ (M @ v), "left": lambda v: M @ (A @ v),
          "none": lambda v: A @ v}[side]
    to_x = (lambda y: M @ y) if side == "right" else (lambda y: y)
    bnorm = float(np.linalg.norm(b))
    rhs = M @ b if side == "left" else b
    rhs_norm = float(np.linalg.norm(rhs))
    y, r = np.zeros(len(b)), rhs.copy()
    r_hat, history = r.copy(), []
    rho = alpha = omega = 1.0
    p = v = None
    for it in range(1, max_iters + 1):
        rho_new = float(r_hat @ r)
        if it == 1:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        rho = rho_new
        v = op(p)
        alpha = rho / float(r_hat @ v)
        s = r - alpha * v
        h = y + alpha * p
        history.append(float(np.linalg.norm(s)) / rhs_norm)
        if history[-1] < rel_tol and np.linalg.norm(b - A @ to_x(h)) / bnorm < rel_tol:
            return to_x(h), history
        t = op(s)
        omega = float(t @ s) / float(t @ t)
        y = h + omega * s
        r = s - omega * t
        history.append(float(np.linalg.norm(r)) / rhs_norm)
        if history[-1] < rel_tol and np.linalg.norm(b - A @ to_x(y)) / bnorm < rel_tol:
            return to_x(y), history
    return to_x(y), history


def allocating_gmres(A, b, M, side, m, rel_tol=1e-8, max_iters=50):
    """GMRES(m) as the solver runs it on the main path, with a new basis per
    cycle, one new array per expression and scipy's ``@`` for every product."""
    A, M = A.to_csr(), M.M.to_csr() if M is not None else None
    op = {"right": lambda v: A @ (M @ v), "left": lambda v: M @ (A @ v),
          "none": lambda v: A @ v}[side]
    to_x = (lambda y: M @ y) if side == "right" else (lambda y: y)
    bnorm = float(np.linalg.norm(b))
    rhs = M @ b if side == "left" else b
    rhs_norm = float(np.linalg.norm(rhs))
    x, history = np.zeros(len(b)), []
    for cycle in range(max_iters):
        r = rhs - op(x) if cycle else rhs.copy()
        beta = float(np.linalg.norm(r))
        if beta / rhs_norm < rel_tol and np.linalg.norm(b - A @ to_x(x)) / bnorm < rel_tol:
            break
        V = np.zeros((m + 1, len(b)))
        V[0] = r / beta
        R, cs, sn, g = [], [], [], [beta]
        for j in range(m):
            w = op(V[j])
            norm_before = float(np.linalg.norm(w))
            basis = V[: j + 1]
            h = basis @ w
            w -= h @ basis
            h_next = float(np.linalg.norm(w))
            if h_next < krylov._REORTH_THRESHOLD * norm_before:
                c = basis @ w
                w -= c @ basis
                h += c
                h_next = float(np.linalg.norm(w))
            V[j + 1] = w / h_next
            col = h.tolist()
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      -sn[i] * col[i] + cs[i] * col[i + 1])
            denom = math.hypot(col[j], h_next)
            cs.append(col[j] / denom)
            sn.append(h_next / denom)
            col[j] = cs[j] * col[j] + sn[j] * h_next
            R.append(col)
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]
            history.append(abs(g[j + 1]) / rhs_norm)
            if history[-1] < rel_tol:
                break
        y_small = [0.0] * len(R)
        for i in range(len(R) - 1, -1, -1):
            acc = g[i]
            for k in range(i + 1, len(R)):
                acc -= R[k][i] * y_small[k]
            y_small[i] = acc / R[i][i]
        x = x + np.array(y_small) @ V[: len(R)]
        if history[-1] < rel_tol and np.linalg.norm(b - A @ to_x(x)) / bnorm < rel_tol:
            break
    return to_x(x), history


class TestWorkVectorsKeepTheBits:
    """Both solvers give the iterates and residual histories of the
    allocating form bit for bit, on every side."""

    @pytest.mark.parametrize("side", ["right", "left", "none"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bicgstab(self, side, seed):
        rng = np.random.default_rng(61 + seed)
        A = random_sparse(rng, 40, 0.12, diag_boost=2.5)
        M = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=4, side=side)) \
            if side != "none" else None
        b = rng.standard_normal(40)
        x, rep = bicgstab(A, b, M=M, params=SolveParams(side=side))
        x_ref, history = allocating_bicgstab(A, b, M, side)
        assert rep.converged
        assert same_bits(x, x_ref) and rep.residual_history == history

    @pytest.mark.parametrize("side", ["right", "left", "none"])
    @pytest.mark.parametrize("seed", range(4))
    def test_gmres(self, side, seed):
        rng = np.random.default_rng(67 + seed)
        A = random_sparse(rng, 40, 0.12, diag_boost=2.5)
        M = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=4, side=side)) \
            if side != "none" else None
        b = rng.standard_normal(40)
        params = SolveParams(method="gmres", restart=5, side=side)
        x, rep = gmres_restart(A, b, M=M, params=params)
        x_ref, history = allocating_gmres(A, b, M, side, params.restart)
        assert rep.converged and rep.iters > params.restart  # restarted at least once
        assert same_bits(x, x_ref) and rep.residual_history == history


class TestCsrCopies:
    def test_built_once_per_matrix(self, monkeypatch):
        """Repeated solves with the same A and M convert each matrix once."""
        converted = []
        tocsr = sp.csc_matrix.tocsr

        def counting(self, *args, **kwargs):
            converted.append(self.shape)
            return tocsr(self, *args, **kwargs)

        rng = np.random.default_rng(37)
        A = random_well_conditioned(rng, 12, density=0.5)
        M = SparseMatrix.identity(12)
        b = A.matvec(np.ones(12))
        monkeypatch.setattr(sp.csc_matrix, "tocsr", counting)
        for _ in range(2):
            for method, fn in (("bicgstab", bicgstab), ("gmres", gmres_restart)):
                _, rep = fn(A, b, M=M, params=SolveParams(method=method))
                assert rep.converged
        assert len(converted) == 2


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

    @pytest.mark.parametrize("method", ["bicgstab", "gmres"])
    def test_rejects_rhs_whose_norm_underflows(self, method):
        # every square underflows, so ||b||_2 is 0 although b is not
        b = np.ldexp(np.array([1.0, 2.0, 3.0]), -600)
        assert np.linalg.norm(b) == 0.0 and b.any()
        for side in ("none", "right"):
            M = None if side == "none" else SparseMatrix.identity(3)
            with pytest.raises(ValueError, match="underflows"):
                solve(SparseMatrix.identity(3), b, M, SolveParams(method=method, side=side))

    @pytest.mark.parametrize("fn, method", [(bicgstab, "bicgstab"), (gmres_restart, "gmres")])
    def test_rejects_wrong_length_rhs(self, fn, method):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            fn(SparseMatrix.identity(3), np.ones(4), params=SolveParams(method=method, side="none"))


class TestSolveParams:
    @pytest.mark.parametrize("rel_tol", [np.inf, 1.0, 2.0, np.nan, 0.0, -1.0])
    def test_rel_tol_must_lie_in_open_unit_interval(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol must be positive and below 1"):
            SolveParams(rel_tol=rel_tol)

    @pytest.mark.parametrize("name", ["restart", "max_iters"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_counts_must_be_integers(self, name, value):
        # a float failed in range() inside the solve, and True acted as 1
        with pytest.raises(TypeError, match=f"{name} must be an integer, got {value!r}"):
            SolveParams(**{name: value})
        assert getattr(SolveParams(**{name: np.int32(3)}), name) == 3


class TestStopReason:
    """Every exit of both solvers names its reason, and the flags agree."""

    def check(self, rep, reason):
        assert rep.reason == reason
        assert rep.converged == (reason == "converged")
        assert rep.breakdown == (reason == "breakdown")
        assert rep.stagnated == (reason == "stagnated")

    @pytest.mark.parametrize("fn, method", [(bicgstab, "bicgstab"), (gmres_restart, "gmres")])
    def test_converged(self, fn, method):
        rng = np.random.default_rng(13)
        A = random_well_conditioned(rng, 10, density=0.6)
        _, rep = fn(A, A.matvec(np.ones(10)), params=SolveParams(method=method, side="none"))
        self.check(rep, "converged")
        _, rep = fn(A, np.zeros(10), params=SolveParams(method=method, side="none"))
        self.check(rep, "converged")

    @pytest.mark.parametrize("fn, method", [(bicgstab, "bicgstab"), (gmres_restart, "gmres")])
    def test_max_iters(self, fn, method):
        rng = np.random.default_rng(11)
        A = random_sparse(rng, 20, 0.3, diag_boost=0.05)
        params = SolveParams(method=method, restart=2, side="none", max_iters=2)
        _, rep = fn(A, A.matvec(np.ones(20)), params=params)
        self.check(rep, "max_iters")

    def test_breakdown(self):
        A = SparseMatrix.from_dense([[0.0, 1.0], [-1.0, 0.0]])
        _, rep = bicgstab(A, np.array([1.0, 0.0]), params=SolveParams(side="none"))
        self.check(rep, "breakdown")
        # a left preconditioner with b in its null space: M b = 0
        M = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
        A, b = SparseMatrix.identity(2), np.array([0.0, 1.0])
        for fn, method in ((bicgstab, "bicgstab"), (gmres_restart, "gmres")):
            _, rep = fn(A, b, M=M, params=SolveParams(method=method, side="left"))
            self.check(rep, "breakdown")

    def test_bicgstab_breakdown_on_rho(self):
        # A e1 = e1 + e2 gives alpha = 1 and s = -e2, then omega = 1/2 and
        # r = (0, -1/2, 1/2), exactly orthogonal to the shadow residual e1:
        # the second step starts with rho = 0, before any product
        A = SparseMatrix.from_dense([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        x, rep = bicgstab(A, np.array([1.0, 0.0, 0.0]), params=SolveParams(side="none"))
        self.check(rep, "breakdown")
        assert rep.iters == 2.0 and rep.matvecs == 3  # two in the first step, one in accept
        assert np.array_equal(x, [1.0, -0.5, 0.0])
        assert rep.final_rel_residual == np.sqrt(0.5)

    def test_gmres_breakdown_at_the_start_of_a_cycle(self):
        # with the singular left M = diag(1, 0) the first cycle solves
        # M A x = M b exactly at x = e1, so the second starts from beta = 0,
        # while the true residual b - A x = (0, 1) is not small
        A = SparseMatrix.from_dense([[2.0, 1.0], [1.0, 3.0]])
        M = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
        x, rep = gmres_restart(A, np.array([2.0, 2.0]), M=M,
                               params=SolveParams(method="gmres", side="left"))
        self.check(rep, "breakdown")
        assert rep.iters == 1.0
        assert np.array_equal(x, [1.0, 0.0])
        assert rep.final_rel_residual == 1.0 / np.sqrt(8.0)

    def test_stagnated(self):
        A = SparseMatrix.from_coo(4, 4, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
        params = SolveParams(method="gmres", restart=4, side="none", max_iters=50)
        _, rep = gmres_restart(A, np.array([0.0, 0.0, 0.0, 1.0]), params=params)
        self.check(rep, "stagnated")

    @pytest.mark.parametrize("fn, method", [(bicgstab, "bicgstab"), (gmres_restart, "gmres")])
    def test_non_finite_stops_at_once(self, fn, method):
        # products overflow, so the first norm that sees them is inf or NaN
        A, b = SparseMatrix.from_dense([[1e308, 1e308], [0.0, 1e308]]), np.ones(2)
        params = SolveParams(method=method, side="none", max_iters=30)
        with np.errstate(over="ignore", invalid="ignore"):
            _, rep = fn(A, b, params=params)
        self.check(rep, "non-finite")
        assert rep.iters <= 1  # not run on to the cap of 30 cycles or steps

    def test_bicgstab_breakdown_on_tt(self):
        # alpha = 1 gives s = (-1, 1), and A s = 0: ||t||^2 = 0 ends the first
        # step at the half-step iterate h = (1, 1)
        A = SparseMatrix.from_dense([[1.0, 1.0], [0.0, 0.0]])
        x, rep = bicgstab(A, np.array([1.0, 1.0]), params=SolveParams(side="none"))
        self.check(rep, "breakdown")
        assert rep.iters == 1.0 and rep.matvecs == 3
        assert np.array_equal(x, [1.0, 1.0])
        assert rep.residual_history == [1.0] and rep.final_rel_residual == 1.0

    def test_bicgstab_breakdown_on_omega(self):
        # s = -e2 and t = A s = -e1 are orthogonal, so omega = 0: the step
        # keeps r = s and the half-step iterate, then stops
        A = SparseMatrix.from_dense([[1.0, 1.0], [1.0, 0.0]])
        x, rep = bicgstab(A, np.array([1.0, 0.0]), params=SolveParams(side="none"))
        self.check(rep, "breakdown")
        assert rep.iters == 1.0 and rep.matvecs == 3
        assert np.array_equal(x, [1.0, 0.0])
        assert rep.residual_history == [1.0, 1.0] and rep.final_rel_residual == 1.0

    def test_bicgstab_non_finite_r(self):
        # the first product is finite and s = (0, -2), but t = A s overflows:
        # ||t||^2 = inf gives omega = inf / inf = NaN, so r is NaN
        A = SparseMatrix.from_dense([[1.0, 0.0], [2.0, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            x, rep = bicgstab(A, np.array([1.0, 0.0]), params=SolveParams(side="none"))
        self.check(rep, "non-finite")
        assert rep.iters == 1.0 and rep.matvecs == 3
        assert np.isnan(x).all() and np.isnan(rep.final_rel_residual)
        assert rep.residual_history == [2.0]

    def test_gmres_non_finite_beta_at_a_restart(self):
        # GMRES(1)'s first cycle is finite (row 0 of A cancels exactly on
        # (1, 1) / sqrt 2) and returns x near (2^40, 2^40, 0); at the
        # restart, row 0 of A x overflows to inf - inf = NaN
        A = SparseMatrix.from_dense([[1e300, -1e300, 0.0], [0.0, 2.0**-40, 0.0],
                                     [0.0, 0.0, 1.0]])
        params = SolveParams(method="gmres", restart=1, side="none")
        with np.errstate(over="ignore", invalid="ignore"):
            x, rep = gmres_restart(A, np.array([1.0, 1.0, 0.0]), params=params)
        self.check(rep, "non-finite")
        assert rep.iters == 1.0 and rep.matvecs == 3  # cycle, restart, accept
        assert x.tolist() == [1099511627776.0002, 1099511627776.0002, 0.0]
        assert rep.residual_history == [0.7071067811865475]
        assert np.isnan(rep.final_rel_residual)

    def test_gmres_converged_at_the_start_of_a_cycle(self):
        # one GMRES(1) cycle leaves its inner estimate e a rounding above the
        # residual t that the restart recomputes; with rel_tol = e the cycle
        # does not stop, and the next one converges at its start
        A = SparseMatrix.from_dense([[3.0, 2.0, 2.0], [-1.0, 3.0, -3.0], [1.0, 2.0, 3.0]])
        b = np.array([0.0, -1.0, -1.0])
        one_cycle = SolveParams(method="gmres", restart=1, side="none", max_iters=1)
        x1, rep1 = gmres_restart(A, b, params=one_cycle)
        e, t = rep1.residual_history[-1], rep1.final_rel_residual
        assert t < e
        x, rep = gmres_restart(A, b, params=SolveParams(method="gmres", restart=1,
                                                        side="none", rel_tol=e))
        self.check(rep, "converged")
        assert rep.iters == 1.0 and rep.matvecs == 3  # cycle, restart, accept
        assert rep.residual_history == [e] and rep.final_rel_residual == t
        assert np.array_equal(x, x1)
        assert x.tolist() == [0.0, -0.12195121951219513, -0.12195121951219513]

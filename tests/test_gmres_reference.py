"""``gmres_restart`` against a reference GMRES(m) kept in the tests only:
modified Gram-Schmidt on a column basis with the same restart, stagnation
and true-residual rules, on dense matrices, with the small least-squares
problem solved by ``lstsq`` instead of Givens rotations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saiprec.core import SparseMatrix
from saiprec.krylov import SolveParams, gmres_restart

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def reference_gmres(A, b, M, params):
    """(x, inner steps, converged) of GMRES(m) from x0 = 0, with one
    reorthogonalization pass when MGS loses half of a vector's norm."""
    A = A.to_dense()
    side = params.side if M is not None else "none"
    M = M.to_dense() if M is not None else np.eye(A.shape[0])
    op = {"right": lambda v: A @ (M @ v), "left": lambda v: M @ (A @ v),
          "none": lambda v: A @ v}[side]
    to_user = (lambda y: M @ y) if side == "right" else (lambda y: y)
    rhs = M @ b if side == "left" else b
    bnorm, rhs_norm = np.linalg.norm(b), np.linalg.norm(rhs)
    m, n = params.restart, b.size
    x, steps, prev_beta = np.zeros(n), 0, None

    def converged(x):
        return np.linalg.norm(b - A @ to_user(x)) / bnorm < params.rel_tol

    for _ in range(params.max_iters):
        r = rhs - op(x)
        beta = np.linalg.norm(r)
        if beta / rhs_norm < params.rel_tol:
            if converged(x):
                return to_user(x), steps, True
            if beta == 0.0:
                break
        if prev_beta is not None and beta >= prev_beta * (1.0 - 1e-12):
            break
        prev_beta = beta
        V, H = np.zeros((n, m + 1)), np.zeros((m + 1, m))
        V[:, 0] = r / beta
        for j in range(m):
            w = op(V[:, j])
            norm_before = np.linalg.norm(w)
            for _pass in range(2):
                for i in range(j + 1):
                    c = V[:, i] @ w
                    H[i, j] += c
                    w -= c * V[:, i]
                if np.linalg.norm(w) >= 0.7071 * norm_before:
                    break
            H[j + 1, j] = np.linalg.norm(w)
            steps += 1
            if H[j + 1, j] != 0.0:
                V[:, j + 1] = w / H[j + 1, j]
            e1 = np.zeros(j + 2)
            e1[0] = beta
            y = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)[0]
            res = np.linalg.norm(e1 - H[: j + 2, : j + 1] @ y)
            done = H[j + 1, j] == 0.0 or res / rhs_norm < params.rel_tol
            if done:
                break
        x = x + V[:, : j + 1] @ y
        if done and converged(x):
            return to_user(x), steps, True
    return to_user(x), steps, False


def _perturbed(rng, n, scale, norm, density):
    """scale * (I + E) with E random sparse and ||E||_2 = norm."""
    E = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    if np.any(E):
        E *= norm / np.linalg.norm(E, 2)
    return scale * (np.eye(n) + E)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 16), restart=st.integers(2, 12),
       side=st.sampled_from(["right", "left", "none"]))
def test_matches_reference(seed, n, restart, side):
    """A = c (I + B) with ||B||_2 <= 0.6 and M = (I + E) / c with ||E||_2 <= 0.2
    keep the symmetric part of the (preconditioned) operator definite, so
    every GMRES(m) converges."""
    rng = np.random.default_rng(seed)
    c = 10.0 ** rng.uniform(-3, 3)
    A = SparseMatrix.from_dense(_perturbed(rng, n, c, rng.uniform(0.0, 0.6), rng.uniform(0.2, 1)))
    M = SparseMatrix.from_dense(_perturbed(rng, n, 1.0 / c, rng.uniform(0.0, 0.2), 0.3))
    b = rng.standard_normal(n)
    params = SolveParams(method="gmres", restart=restart, max_iters=400, side=side)
    x, rep = gmres_restart(A, b, M=None if side == "none" else M, params=params)
    x_ref, steps, converged = reference_gmres(A, b, None if side == "none" else M, params)
    assert (rep.iters, rep.converged) == (steps, converged)
    assert rep.converged
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_second_pass_on_ill_conditioned_basis():
    """Without the conditional second pass, classical Gram-Schmidt loses
    orthogonality on this kappa = 1e6 system and needs 68 steps, not 40."""
    n = 40
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = Q @ np.diag(np.logspace(0, 6, n)) @ Q.T + np.triu(rng.standard_normal((n, n)), 1)
    A = SparseMatrix.from_dense(dense)
    b = rng.standard_normal(n)
    params = SolveParams(method="gmres", restart=n, max_iters=3, side="none", rel_tol=1e-10)
    x, rep = gmres_restart(A, b, params=params)
    x_ref, steps, converged = reference_gmres(A, b, None, params)
    assert (rep.iters, rep.converged) == (steps, converged) == (40, True)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

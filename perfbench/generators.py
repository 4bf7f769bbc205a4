"""Synthetic stand-ins for the benchmark matrices.

Both operators live on the sherman3 grid size (35 x 11 x 13, n = 5005) with a
seven-point stencil, so each has 33,069 nonzeros. They are stand-ins with the
published matrix's grid size, not the published matrices themselves.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from saiprec import SparseMatrix

GRID = (35, 11, 13)
VELOCITY = (30.0, 20.0, 10.0)  # convection c of the convection-diffusion operator


def _neighbour_pairs(shape):
    """(lower, upper, axis) index pairs of every interior face of the grid."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    for axis in range(3):
        lo = np.take(idx, range(shape[axis] - 1), axis=axis).ravel()
        hi = np.take(idx, range(1, shape[axis]), axis=axis).ravel()
        yield lo, hi, axis


def convection_diffusion_3d(shape=GRID) -> SparseMatrix:
    """Central-difference -Laplace(u) + c . grad(u) with Dirichlet boundaries
    on a uniform mesh of width h = 1/(max(shape) + 1), so the longest axis
    spans the unit interval and the mesh Peclet numbers c_d h / 2 stay below 1."""
    n = int(np.prod(shape))
    h = 1.0 / (max(shape) + 1)
    diag = np.full(n, 6.0 / h**2)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [diag]
    for lo, hi, axis in _neighbour_pairs(shape):
        c = VELOCITY[axis]
        # row lo couples to its upper neighbour, row hi to its lower one
        rows += [lo, hi]
        cols += [hi, lo]
        vals += [np.full(lo.size, -1.0 / h**2 + c / (2.0 * h)),
                 np.full(lo.size, -1.0 / h**2 - c / (2.0 * h))]
    A = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return SparseMatrix.from_scipy(A)


def reservoir_3d(seed: int, decades: float, shift: float) -> SparseMatrix:
    """Two-point-flux pressure operator with log-uniform cell permeability
    10**U(0, decades): harmonic-mean face transmissibilities off the
    diagonal, the row sum of transmissibilities times ``shift`` on it."""
    n = int(np.prod(GRID))
    perm = 10.0 ** np.random.default_rng(seed).uniform(0.0, decades, size=n)
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for lo, hi, _axis in _neighbour_pairs(GRID):
        t = 2.0 * perm[lo] * perm[hi] / (perm[lo] + perm[hi])
        rows += [lo, hi]
        cols += [hi, lo]
        vals += [-t, -t]
        np.add.at(diag, lo, t)
        np.add.at(diag, hi, t)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag * shift)
    A = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return SparseMatrix.from_scipy(A)


def right_hand_sides(A: SparseMatrix, seed: int, count: int) -> list[np.ndarray]:
    """b = A * ones, then ``count - 1`` vectors b = A * x with x uniform in
    [-1, 1], drawn from a stream of its own for ``seed``."""
    rng = np.random.default_rng((seed, 1))
    As = A.to_scipy()
    out = [As @ np.ones(A.ncols)]
    out += [As @ rng.uniform(-1.0, 1.0, A.ncols) for _ in range(count - 1)]
    return out

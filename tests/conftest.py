import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from saiprec.core import SparseMatrix

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_tool(name: str):
    """``tools/<name>.py`` as a module; environment variables it sets on
    import (compare_builds pins BLAS threads) are undone afterwards."""
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def data_dir() -> Path:
    return Path(os.environ.get("SAIPREC_DATA_DIR", REPO_ROOT / "data"))


def matrix_path(name: str):
    """Path to a benchmark matrix if present locally, else None."""
    base = data_dir()
    for candidate in (base / f"{name}.mtx", base / f"{name}.mtx.gz"):
        if candidate.exists():
            return candidate
    return None


def require_matrix(name: str) -> Path:
    path = matrix_path(name)
    if path is None:
        pytest.skip(
            f"benchmark matrix {name!r} not available (no network in this "
            f"environment; place {name}.mtx under {data_dir()} or run "
            f"`saiprec fetch --download`)"
        )
    return path


def random_sparse(rng: np.random.Generator, n: int, density: float,
                  diag_boost: float = 0.0) -> SparseMatrix:
    """Random sparse n x n matrix; optional diagonal boost for conditioning."""
    dense = rng.standard_normal((n, n))
    mask = rng.random((n, n)) < density
    dense = dense * mask
    if diag_boost:
        dense[np.diag_indices(n)] += diag_boost
    return SparseMatrix.from_dense(dense)


def dense_column(column, n: int) -> np.ndarray:
    """A built ``(indices, values)`` column as a dense length-n vector."""
    indices, values = column
    out = np.zeros(n)
    out[indices] = values
    return out


def random_well_conditioned(rng: np.random.Generator, n: int,
                            density: float = 0.35, cond_cap: float = 1e4) -> SparseMatrix:
    """Random sparse nonsingular matrix with a capped condition number."""
    while True:
        A = random_sparse(rng, n, density, diag_boost=float(n))
        dense = A.to_dense()
        if np.linalg.matrix_rank(dense) == n and np.linalg.cond(dense) < cond_cap:
            return A

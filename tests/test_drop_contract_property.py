"""Property test of the paper's doubling contract on random sparse matrices:
a column whose pre-drop residual meets epsilon < 0.5 keeps a post-drop
residual of at most 2 epsilon under the adaptive drop rule
eps / (nnz(m_k) ||A||_1) scaled by any drop_scale in [0, 1], on either side.
The residuals that ``quality_report`` recomputes from the assembled M must
agree with the build records."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sparse
from saiprec.diagnostics import quality_report
from saiprec.psai import SaiParams, build_preconditioner

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=200)


@SETTINGS
@given(
    n=st.integers(4, 30),
    density=st.floats(0.05, 0.6),
    diag_boost=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.floats(0.05, 0.49, exclude_min=True, exclude_max=True),
    drop_scale=st.floats(0.0, 1.0),
    l_max=st.integers(1, 10),
    side=st.sampled_from(["right", "left"]),
)
def test_adaptive_drop_at_most_doubles_met_residuals(n, density, diag_boost, seed, epsilon,
                                                     drop_scale, l_max, side):
    A = random_sparse(np.random.default_rng(seed), n, density, diag_boost=diag_boost)
    params = SaiParams(epsilon=epsilon, l_max=l_max, drop_scale=drop_scale, side=side)
    P = build_preconditioner(A, params)
    for rec in P.records:
        if rec.pre_drop_residual <= epsilon:
            assert rec.post_drop_residual <= 2.0 * epsilon + 1e-12, rec
    residuals = quality_report(A, P, epsilon).per_column_residuals
    assert residuals == pytest.approx([r.post_drop_residual for r in P.records], abs=1e-10)

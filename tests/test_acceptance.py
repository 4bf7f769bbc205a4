"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values. Run with  pytest tests/test_acceptance.py -v -s

Criteria that require the public benchmark matrices skip with an explicit
reason when the files are absent (this sandbox has no outbound network; use
`saiprec fetch --download` where one exists, or drop the .mtx files into
./data).
"""

import time

import numpy as np
import pytest

from conftest import dense_column, random_sparse, random_well_conditioned, require_matrix
from saiprec.core import SparseMatrix, load_matrix_market
from saiprec.diagnostics import check_nonsingular
from saiprec.krylov import SolveParams, bicgstab, gmres_restart
from saiprec.lsq import ColumnLeastSquares
from saiprec.psai import SaiParams, bpsai_column, build_preconditioner
from saiprec.static import make_pattern, postfilter, static_build

TEN_SMALLEST = [
    "nos6", "orsirr_2", "nos3", "sherman1", "orsirr_1",
    "sherman2", "sherman4", "pores_2", "orsreg_1", "fidap024",
]
DAGGER_SET = ["orsirr_1", "orsirr_2", "pores_2", "sherman2", "sherman5"]


def _solve_both(A, P, side):
    # published budget: 1000 BiCGStab steps; 1000 GMRES(50) inner steps,
    # i.e. 20 restart cycles
    b = A.matvec(np.ones(A.ncols))
    reports = {}
    for method, restart, max_iters in (("bicgstab", 50, 1000), ("gmres", 50, 20)):
        params = SolveParams(
            method=method, restart=restart, rel_tol=1e-8,
            max_iters=max_iters, side=side if P is not None else "none",
        )
        fn = gmres_restart if method == "gmres" else bicgstab
        _, rep = fn(A, b, M=P, params=params)
        reports[method] = rep
    return reports


@pytest.fixture(scope="module")
def sherman4_run():
    path = require_matrix("sherman4")
    A = load_matrix_market(path)
    start = time.perf_counter()
    P = build_preconditioner(
        A, SaiParams(epsilon=0.2, l_max=8, drop_mode="adaptive"), threads=1
    )
    reports = _solve_both(A, P, side="right")
    elapsed = time.perf_counter() - start
    return A, P, reports, elapsed


@pytest.fixture(scope="module")
def orsirr1_sweep():
    path = require_matrix("orsirr_1")
    A = load_matrix_market(path)
    runs = []
    for scale in (1.0, 0.5, 0.1, 0.01, 0.0):
        sai = SaiParams(
            epsilon=0.2, l_max=8,
            drop_mode="adaptive" if scale > 0 else "none",
            drop_scale=scale if scale > 0 else 1.0,
        )
        P = build_preconditioner(A, sai, threads=1)
        reports = _solve_both(A, P, side="right")
        runs.append((scale, P, reports))
    return A, runs


def test_criterion_1_sherman4_row(sherman4_run):
    """Table 2, sherman4 @ eps=0.2, l_max=8, adaptive dropping."""
    A, P, reports, elapsed = sherman4_run
    coln = P.coln(0.2)
    assert coln == 0
    assert P.r_max <= 0.20 + 1e-6
    assert abs(P.spar - 3.36) <= 0.2 * 3.36
    rep_b, rep_g = reports["bicgstab"], reports["gmres"]
    assert rep_b.converged and rep_g.converged
    assert rep_b.iters <= 2 * 24
    assert rep_g.iters <= 2 * 34
    assert rep_b.matvecs <= 4 * 24 + 8  # 2 products per step, 2x budget, checks
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 1 PASS: sherman4 coln={coln} r_max={P.r_max:.6f} "
        f"spar={P.spar:.2f} iters_b={rep_b.iters} iters_g={rep_g.iters} "
        f"runtime={elapsed:.1f}s"
    )


def test_criterion_2_table2_breadth():
    """Table 2 breadth @ eps=0.3, l_max=10 plus unpreconditioned daggers."""
    paths = {name: require_matrix(name) for name in TEN_SMALLEST + ["sherman5"]}
    successes = []
    failures = []
    for name in TEN_SMALLEST:
        A = load_matrix_market(paths[name])
        side = "left" if name == "pores_2" else "right"
        P = build_preconditioner(A, SaiParams(epsilon=0.3, l_max=10, side=side))
        reports = _solve_both(A, P, side=side)
        ok = (
            P.coln(0.3) == 0
            and reports["bicgstab"].converged
            and reports["gmres"].converged
        )
        (successes if ok else failures).append(name)
    assert len(successes) >= 8, f"only {successes} passed; failures: {failures}"
    daggered = []
    for name in DAGGER_SET:
        A = load_matrix_market(paths[name])
        reports = _solve_both(A, None, side="none")
        assert not reports["bicgstab"].converged, f"{name} BiCGStab converged bare"
        assert not reports["gmres"].converged, f"{name} GMRES converged bare"
        daggered.append(name)
    print(
        f"\nACCEPTANCE 2 PASS: {len(successes)}/10 preconditioned "
        f"({', '.join(successes)}); daggers on {', '.join(daggered)}"
    )


def test_criterion_3_table3_monotonicity(orsirr1_sweep):
    """Table 3 on orsirr_1: sparsity monotone in the drop scaling."""
    _, runs = orsirr1_sweep
    spars = [P.spar for _, P, _ in runs]
    assert spars == sorted(spars), f"spar not monotone: {spars}"
    iters_b = [r["bicgstab"].iters for _, _, r in runs]
    iters_g = [r["gmres"].iters for _, _, r in runs]
    assert max(iters_b) - min(iters_b) <= 3
    assert max(iters_g) - min(iters_g) <= 3
    assert abs(spars[0] - 10.15) <= 0.2 * 10.15
    assert abs(spars[-1] - 16.77) <= 0.2 * 16.77
    print(
        f"\nACCEPTANCE 3 PASS: spar={['%.2f' % s for s in spars]} "
        f"iters_b={iters_b} iters_g={iters_g}"
    )


def test_criterion_4_table4_sensitivity():
    """Table 4 on orsirr_1: fixed tol 1e-3 breaks, 1e-4 works."""
    path = require_matrix("orsirr_1")
    A = load_matrix_market(path)
    bad = build_preconditioner(
        A, SaiParams(epsilon=0.2, l_max=8, drop_mode="fixed", tol=1e-3), threads=1
    )
    # the published failure number is the residual of the *emitted* (dropped)
    # columns; the pre-drop LS residual can never exceed 1
    bad_r_max = max(r.post_drop_residual for r in bad.records)
    assert bad_r_max > 10.0, f"bad-tol post-drop r_max only {bad_r_max}"
    bad_nonsingular, _ = check_nonsingular(bad.M)
    if bad_nonsingular:
        reports = _solve_both(A, bad, side="right")
        assert not (reports["bicgstab"].converged and reports["gmres"].converged), (
            "tol=1e-3 produced a working preconditioner"
        )
    good = build_preconditioner(
        A, SaiParams(epsilon=0.2, l_max=8, drop_mode="fixed", tol=1e-4), threads=1
    )
    good_nonsingular, _ = check_nonsingular(good.M)
    assert good_nonsingular
    reports = _solve_both(A, good, side="right")
    assert reports["bicgstab"].converged and reports["gmres"].converged
    print(
        f"\nACCEPTANCE 4 PASS: tol=1e-3 post-drop r_max={bad_r_max:.2f} "
        f"singular={not bad_nonsingular}; tol=1e-4 converges "
        f"({reports['bicgstab'].iters}, {reports['gmres'].iters})"
    )


class TestCriterion5ResidualDoubling:
    """Every adaptive build: pre-drop <= eps implies post-drop <= 2 eps."""

    @staticmethod
    def _check(P, eps):
        violations = [
            (r.k, r.pre_drop_residual, r.post_drop_residual)
            for r in P.records
            if r.pre_drop_residual <= eps and r.post_drop_residual > 2 * eps + 1e-12
        ]
        assert violations == [], violations

    def test_random_suite(self):
        rng = np.random.default_rng(2024)
        eps = 0.3
        columns_checked = 0
        for _ in range(100):
            A = random_sparse(rng, 30, 0.10)
            if A.nnz == 0 or np.any(np.diff(A.col_ptr) == 0):
                # structurally empty columns make the LS trivially stuck at
                # residual 1 > eps; keep them (bound is vacuous there)
                pass
            P = build_preconditioner(A, SaiParams(epsilon=eps, l_max=10))
            self._check(P, eps)
            columns_checked += len(P.records)
        print(
            f"\nACCEPTANCE 5 PASS (random part): 100 matrices, "
            f"{columns_checked} columns, zero violations"
        )

    def test_sherman4_build(self, sherman4_run):
        _, P, _, _ = sherman4_run
        self._check(P, 0.2)
        print("\nACCEPTANCE 5 PASS (sherman4 build): zero violations")

    def test_orsirr1_builds(self, orsirr1_sweep):
        _, runs = orsirr1_sweep
        for scale, P, _ in runs:
            if scale > 0:
                self._check(P, 0.2)
        print("\nACCEPTANCE 5 PASS (orsirr_1 sweep builds): zero violations")


def test_criterion_6_nonsingular_dropping_randomized():
    """100 constructed (A, M, F) triples satisfy the nonsingularity and
    residual-doubling conclusions."""
    rng = np.random.default_rng(4096)
    done = 0
    while done < 100:
        n = 20
        A = random_well_conditioned(rng, n, density=0.3)
        dense = A.to_dense()
        a_norm = A.one_norm()
        eps = float(rng.uniform(0.1, 0.45))
        M_dense = np.linalg.inv(dense)
        M_dense += rng.standard_normal((n, n)) * eps / (8 * n * a_norm)
        res = np.abs(dense @ M_dense - np.eye(n)).sum(axis=0).max()
        if res > eps:
            continue
        # F: the small-magnitude part of M, scaled onto the theorem's bound
        cutoff = np.quantile(np.abs(M_dense), 0.3)
        F = np.where(np.abs(M_dense) <= cutoff, M_dense, 0.0)
        f_norm = np.abs(F).sum(axis=0).max()
        if f_norm == 0.0:
            continue
        bound = eps / a_norm
        scale = min(1.0, 0.999 * bound / f_norm)
        F *= scale
        M_d_dense = M_dense - F
        assert np.abs(F).sum(axis=0).max() <= bound
        M_d = SparseMatrix.from_dense(M_d_dense)
        nonsingular, _ = check_nonsingular(M_d)
        assert nonsingular, f"instance {done}: M_d numerically singular"
        res_d = np.abs(dense @ M_d_dense - np.eye(n)).sum(axis=0).max()
        assert res_d <= 2 * eps + 1e-12, f"instance {done}: {res_d} > 2*{eps}"
        done += 1
    print("\nACCEPTANCE 6 PASS: 100/100 instances nonsingular with ||AMd-I||_1 <= 2eps")


def test_criterion_7_static_table5():
    """Static (I+A)^3 on orsirr_2 and sherman5: postfilter keeps quality."""
    lines = []
    for name in ("orsirr_2", "sherman5"):
        path = require_matrix(name)
        A = load_matrix_market(path)
        P = static_build(A, make_pattern(A, "iplusa", 3), threads=1)
        F = postfilter(A, P, floor=0.1)
        assert F.M.nnz < P.M.nnz, f"{name}: postfilter removed nothing"
        dense_bound_violations = [
            (rec.k, rec.post_drop_residual)
            for rec in F.records
            if rec.post_drop_residual
            > 2.0 * max(P.records[rec.k].pre_drop_residual, 0.1) + 1e-12
        ]
        assert dense_bound_violations == [], dense_bound_violations[:5]
        rep_m = _solve_both(A, P, side="right")
        rep_f = _solve_both(A, F, side="right")
        for method in ("bicgstab", "gmres"):
            assert rep_m[method].converged and rep_f[method].converged
            assert abs(rep_m[method].iters - rep_f[method].iters) <= 3
        lines.append(
            f"{name}: nnz {P.M.nnz}->{F.M.nnz} iters_b "
            f"{rep_m['bicgstab'].iters}->{rep_f['bicgstab'].iters}"
        )
    print("\nACCEPTANCE 7 PASS: " + "; ".join(lines))


class TestCriterion8OracleEquivalence:
    def test_bpsai_matches_dense_inverse(self):
        rng = np.random.default_rng(888)
        params = SaiParams(epsilon=1e-12, l_max=20, drop_mode="none")
        filled_columns = 0
        for _ in range(50):
            n = int(rng.integers(5, 13))
            A = random_well_conditioned(rng, n, density=0.5)
            inv = np.linalg.inv(A.to_dense())
            envelope = make_pattern(A, "iplusa", 20)
            for k in range(n):
                if envelope.column(k)[0].size != n:
                    continue  # power pattern does not fill for this column
                vec, _ = bpsai_column(A, k, params)
                assert np.allclose(dense_column(vec, n), inv[:, k], atol=1e-8, rtol=0)
                filled_columns += 1
        assert filled_columns > 100
        print(
            f"\nACCEPTANCE 8 PASS (inverse oracle): {filled_columns} filled "
            f"columns matched to 1e-8"
        )

    def test_incremental_agrees_with_fresh(self):
        rng = np.random.default_rng(999)
        checked = 0
        while checked < 200:
            n = int(rng.integers(4, 13))
            A = random_well_conditioned(rng, n, density=0.55)
            k = int(rng.integers(n))
            order = rng.permutation(n).tolist()
            first = max(1, int(rng.integers(1, n)))
            state = ColumnLeastSquares(A, k, sorted(order[:first]))
            taken = order[:first]
            pos = first
            while pos < n:
                step = int(rng.integers(1, n - pos + 1))
                chunk = order[pos : pos + step]
                state.augment(sorted(chunk))
                taken += chunk
                pos += step
                fresh = ColumnLeastSquares(A, k, sorted(taken))
                got = np.zeros(n)
                got[state.support] = state.solution
                want = np.zeros(n)
                want[fresh.support] = fresh.solution
                assert np.allclose(got, want, atol=1e-10, rtol=0)
                assert abs(state.residual_norm - fresh.residual_norm) <= 1e-10
                checked += 1
        print(f"\nACCEPTANCE 8 PASS (incremental LS): {checked} growth steps agree")


class TestCriterion9SolverCorrectness:
    def test_matches_direct_solutions(self):
        rng = np.random.default_rng(777)
        for i in range(50):
            A = random_well_conditioned(rng, 12, density=0.5, cond_cap=100.0)
            dense = A.to_dense()
            b = A.matvec(np.ones(12))
            direct = np.linalg.solve(dense, b)
            x_b, rep_b = bicgstab(A, b, params=SolveParams(side="none"))
            x_g, rep_g = gmres_restart(
                A, b, params=SolveParams(method="gmres", restart=12, side="none")
            )
            for tag, x, rep in (("bicgstab", x_b, rep_b), ("gmres", x_g, rep_g)):
                assert rep.converged, f"{tag} failed on instance {i}"
                assert np.linalg.norm(b - dense @ x) / np.linalg.norm(b) < 1e-8
                assert np.linalg.norm(x - direct) / np.linalg.norm(direct) < 1e-6
        print("\nACCEPTANCE 9 PASS (direct oracle): 50/50 systems matched")

    def test_identity_preconditioner_iterates(self):
        rng = np.random.default_rng(778)
        M = SparseMatrix.identity(12)
        for _ in range(10):
            A = random_well_conditioned(rng, 12, density=0.5, cond_cap=100.0)
            b = A.matvec(np.ones(12))
            for method, fn in (("bicgstab", bicgstab), ("gmres", gmres_restart)):
                x_plain, _ = fn(A, b, params=SolveParams(method=method, side="none"))
                for side in ("right", "left"):
                    x_prec, _ = fn(A, b, M=M, params=SolveParams(method=method, side=side))
                    assert np.allclose(x_prec, x_plain, atol=1e-13, rtol=0)
        print("\nACCEPTANCE 9 PASS (identity preconditioner): iterates equal to 1e-13")

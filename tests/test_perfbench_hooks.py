"""The benchmark under ``perfbench/`` wraps saiprec's functions by name at run
time. A renamed or deleted function turns its metrics absent there, and a
function the builds no longer call leaves its metrics empty, so the hooks
are checked here: perfbench's own self-test passes, every traced boundary
still resolves, and the builds enter every build-side boundary that a
per-layer metric of ``BENCHMARK.json`` reads."""

import dataclasses
import importlib.util
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from conftest import REPO_ROOT, random_sparse
from saiprec import diagnostics, psai, static

PERFBENCH = REPO_ROOT / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


spans = load_spans()


@pytest.mark.parametrize("name, module, path, kind", spans.BOUNDARIES,
                         ids=[f"{b[1]}.{b[2]}" for b in spans.BOUNDARIES])
def test_boundary_resolves(name, module, path, kind):
    assert spans._resolve(module, path) is not None, f"{name}: {module}.{path} is gone"


# the build-side boundaries behind the per-layer metrics of BENCHMARK.json,
# each of which a benchmark workload's build must enter on its own
BUILD_BOUNDARIES = {
    "adaptive": ("core.assemble", "core.column", "lsq.factor", "lsq.augment", "lsq.shrink",
                 "parallel.map"),
    "static": ("core.assemble", "core.column", "lsq.factor", "parallel.map", "static.build"),
}


def build_adaptive(A):
    psai.build_preconditioner(A, psai.SaiParams(epsilon=0.2, l_max=8), threads=1)


def build_static(A):
    P = static.static_build(A, static.make_pattern(A, "iplusa", 2), threads=1)
    static.postfilter(A, P, floor=0.1)


@pytest.mark.parametrize("builder", ["adaptive", "static"])
def test_builds_enter_every_metered_boundary(builder):
    """A small adaptive build with dropping, and on its own a static build
    with its postfilter, called through module attributes as perfbench's
    workloads call them, each enter every boundary that its workload's
    metrics read (``BUILD_BOUNDARIES``)."""
    A = random_sparse(np.random.default_rng(7), 40, 0.08, diag_boost=3.0)
    tracer = spans.Tracer("hooks")
    with spans.installed(tracer):
        {"adaptive": build_adaptive, "static": build_static}[builder](A)
    entered = set(tracer.names) | {name.removesuffix("_calls") for name, count
                                   in tracer.counts.items() if count}
    assert not tracer.absent
    assert [name for name in BUILD_BOUNDARIES[builder] if name not in entered] == []


def load_workloads():
    """perfbench's workloads module, registered as ``perfbench_workloads``
    (its dataclasses look their module up while it loads); it imports
    perfbench's generators by their bare name."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["adaptive-reservoir", "static-cd3d"])
def test_check_build_reads_the_records(name):
    """perfbench's ``workloads.check_build`` reads the records row by row, by
    attribute; on a small adaptive build with dropping, and a static build
    with its postfilter, it finds no violation, and it sees a residual that
    a record misstates."""
    workloads = load_workloads()
    w = workloads.WORKLOADS[name]
    A = random_sparse(np.random.default_rng(7), 40, 0.08, diag_boost=3.0)
    if w.build == "adaptive":
        P = psai.build_preconditioner(A, workloads.ADAPTIVE, threads=1)
        built = {"M": P}
        assert not np.isnan(P.records.tol_min).all()  # some column dropped
    else:
        P = static.static_build(A, static.make_pattern(A, "iplusa", 2), threads=1)
        built = {"M": P, "Md": static.postfilter(A, P, floor=workloads.FLOOR)}
        assert built["Md"].M.nnz < P.M.nnz
    it = workloads.Iteration(A=A, built=built,
                             nonsingular=diagnostics.check_nonsingular(P.M), solves=[],
                             load_s=0.0, build_s=0.0, solve_s=0.0, total_s=0.0)
    assert workloads.check_build(w, it) == []
    misstated = P.records.copy()
    misstated.post_drop_residual[3] += 0.5
    it.built["M"] = dataclasses.replace(P, records=misstated)
    (violation,) = workloads.check_build(w, it)
    assert "1 column residuals differ from the record (column 3" in violation

"""The benchmark under ``perfbench/`` wraps saiprec's functions by name at run
time. A renamed or deleted function turns its metrics absent there, and a
function the builds no longer call leaves its metrics empty, so the hooks
are checked here: perfbench's own self-test passes, every traced boundary
still resolves, and the builds enter every build-side boundary that a
per-layer metric of ``BENCHMARK.json`` reads."""

import importlib.util
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT, random_sparse
from saiprec import psai, static

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


# the build-side boundaries behind the per-layer metrics of BENCHMARK.json
BUILD_BOUNDARIES = ("core.assemble", "core.column", "lsq.factor", "lsq.augment", "lsq.shrink",
                    "parallel.map", "static.build")


def test_builds_enter_every_metered_boundary():
    """A small adaptive build with dropping and a static build with its
    postfilter, called through module attributes as perfbench's workloads
    call them, enter every boundary in ``BUILD_BOUNDARIES``."""
    A = random_sparse(np.random.default_rng(7), 40, 0.08, diag_boost=3.0)
    tracer = spans.Tracer("hooks")
    with spans.installed(tracer):
        psai.build_preconditioner(A, psai.SaiParams(epsilon=0.2, l_max=8), threads=1)
        P = static.static_build(A, static.make_pattern(A, "iplusa", 2), threads=1)
        static.postfilter(A, P, floor=0.1)
    entered = set(tracer.names) | {name.removesuffix("_calls") for name, count
                                   in tracer.counts.items() if count}
    assert not tracer.absent
    assert [name for name in BUILD_BOUNDARIES if name not in entered] == []

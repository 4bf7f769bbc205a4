"""The benchmark under ``perfbench/`` wraps saiprec's functions by name at run
time. A renamed or deleted function turns its metrics absent there, so both
hooks are checked here: perfbench's own self-test passes, and every traced
boundary still resolves."""

import importlib.util
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

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

"""Spans and counts recorded around calls into saiprec's modules.

The program carries no timers of its own, so the traced run wraps the public
functions of each module at run time, from the benchmark's files only, and
restores them afterwards. High-frequency boundaries (``SparseMatrix.column``
runs about 5e5 times per build) keep a count instead of a span. A boundary
whose function no longer exists is recorded as absent, and every metric that
depends on it is reported as absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span or count name, module, attribute path, kind)
BOUNDARIES = (
    ("core.load", "saiprec.core", "load_matrix_market", "span"),
    ("core.save", "saiprec.core", "save_matrix_market", "span"),
    ("core.assemble", "saiprec.core", "assemble_columns", "span"),
    ("core.column", "saiprec.core", "SparseMatrix.column", "count"),
    ("lsq.factor", "saiprec.lsq", "ColumnLeastSquares.__init__", "span"),
    ("lsq.augment", "saiprec.lsq", "ColumnLeastSquares.augment", "span"),
    ("lsq.shrink", "saiprec.lsq", "ColumnLeastSquares.shrink", "span"),
    ("psai.build", "saiprec.psai", "build_preconditioner", "span"),
    ("psai.column", "saiprec.psai", "bpsai_column", "span"),
    ("psai.column", "saiprec.psai", "psai_tol_column", "span"),
    ("static.pattern", "saiprec.static", "make_pattern", "span"),
    ("static.build", "saiprec.static", "static_build", "span"),
    ("static.postfilter", "saiprec.static", "postfilter", "span"),
    ("parallel.map", "saiprec._parallel", "map_columns", "span"),
    ("krylov.solve", "saiprec.krylov", "bicgstab", "span"),
    ("krylov.solve", "saiprec.krylov", "gmres_restart", "span"),
    ("krylov.apply_a", "saiprec.krylov", "_Operators.apply_a", "span"),
    ("krylov.apply_m", "saiprec.krylov", "_Operators.apply_m", "span"),
    ("diagnostics.nonsingular", "saiprec.diagnostics", "check_nonsingular", "span"),
)


class Tracer:
    """In-memory spans (name, start, end, parent) and counters of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------------
    def totals(self):
        """Per-name (count, total seconds, self seconds); self time is a
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            row = out[name]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[idx]
        return out

    def write(self, path):
        """Spans as [name, start, end, parent, run_id] rows plus the counters."""
        spans = [
            [n, s, e, p, self.run_id]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": spans, "counts": dict(self.counts),
                       "absent": sorted(self.absent)}, fh)


def _span_wrapper(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(tracer, args)
        return result

    return wrapped


def _count_wrapper(tracer: Tracer, name: str, fn):
    counts = tracer.counts
    key = f"{name}_calls"

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapped


def _observe_factor(tracer, args):
    # args = (state, A, k, pattern): the initial pattern is solved for
    state = args[0]
    tracer.counts["lsq.coefs_solved"] += len(state.support)
    _observe_block(tracer, args)


def _observe_augment(tracer, args):
    tracer.counts["lsq.coefs_solved"] += len(args[1])
    _observe_block(tracer, args)


def _observe_block(tracer, args):
    state = args[0]
    tracer.counts["lsq.blocks"] += 1
    tracer.counts["lsq.block_rows"] += len(state.rows)
    tracer.counts["lsq.block_cols"] += len(state.support)


_OBSERVERS = {
    "lsq.factor": _observe_factor,
    "lsq.augment": _observe_augment,
    "lsq.shrink": _observe_block,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the boundary is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


@contextmanager
def installed(tracer: Tracer, only=None):
    """Wrap the boundaries (all, or the names in ``only``) for the duration.

    A module-level function is replaced in every loaded saiprec module that
    imported it by name, so calls between modules are seen too.
    """
    patches = []  # (owner, attribute, original)
    wanted, present = set(), set()
    try:
        for name, module_name, path, kind in BOUNDARIES:
            if only is not None and name not in only:
                continue
            wanted.add(name)
            found = _resolve(module_name, path)
            if found is None:
                continue
            present.add(name)
            owner, attr, original = found
            if kind == "count":
                wrapper = _count_wrapper(tracer, name, original)
            else:
                wrapper = _span_wrapper(tracer, name, original, _OBSERVERS.get(name))
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "saiprec" or mod_name.startswith("saiprec.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        # a name is absent only when none of the functions behind it exists
        tracer.absent |= wanted - present
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

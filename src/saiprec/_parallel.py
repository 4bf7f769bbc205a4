"""Process-based fan-out over independent column tasks.

Columns carry lots of small numpy calls, so threads serialize on the GIL;
worker processes give real speedup. The shared arguments ship once per worker
through the pool initializer, results come back in column order and are
deposited by index, so output is bit-identical for any worker count. Each
worker runs BLAS on one thread: the workers already fill the cores, and
threaded BLAS inside each of them oversubscribes the CPU.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor

_MIN_PARALLEL_COLUMNS = 128  # below this, process startup dominates

_worker_fn = None
_worker_args: tuple = ()


def _openblas_functions(stem: str) -> list:
    """The ``<prefix>_<stem><suffix>`` entry points of every OpenBLAS loaded
    in this process (plain and scipy-openblas builds, 32- and 64-bit
    integer interfaces); empty where the loaded libraries cannot be listed."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping of a since-deleted file
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}_{stem}{suffix}", None)
                if fn is not None:
                    found.append(fn)
    return found


def _init(fn, args):
    global _worker_fn, _worker_args
    for set_threads in _openblas_functions("set_num_threads"):
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)
    _worker_fn = fn
    _worker_args = args


def _run(k):
    return _worker_fn(k, *_worker_args)


def map_columns(fn, args: tuple, n: int, workers: int) -> list:
    """Evaluate ``fn(k, *args)`` for k in range(n), in order.

    ``fn`` must be a module-level function (pickled by reference). With
    ``workers`` <= 1, or too few columns to amortize process startup, runs
    sequentially in-process.
    """
    results = [None] * n
    if workers and workers > 1 and n >= _MIN_PARALLEL_COLUMNS:
        chunk = max(8, n // (workers * 8))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init, initargs=(fn, args)
        ) as pool:
            for k, out in enumerate(pool.map(_run, range(n), chunksize=chunk)):
                results[k] = out
    else:
        for k in range(n):
            results[k] = fn(k, *args)
    return results

#!/usr/bin/env python3
"""Bit-identity harness for the preconditioner builders.

``run`` builds a fixed set of configurations with the saiprec found under
``--src`` and writes, for each one, the arrays of M (and of the postfiltered
M_d for the static builds), ``a_one_norm`` and every ``ColumnBuildRecord``
field to one ``.npz`` file; for the small matrices it also writes the
``quality_report`` of every build and the ``verify_drop_guarantees`` checks
of the diagnostics cases. ``compare`` lists the configurations whose arrays
differ in any bit between two such files. From the repository root:

    python3 tools/compare_builds.py run --src <checkout>/src --out before.npz
    python3 tools/compare_builds.py run --src src --out after.npz
    python3 tools/compare_builds.py compare before.npz after.npz

The set: 240 small random builds (80 matrices of order 4-25 with
small-integer entries, some block-diagonal, some with a zero column, each
built with drop modes none, adaptive and fixed, on the right or the left side,
with random epsilon and l_max); the static builds of the same 80 matrices on
their "abs" and "normal" patterns (random power 1-3, random postfilter floor)
and the postfiltered M_d of each, except where a zero row of A leaves a
pattern column empty; the static (I+A)^3 build of the benchmark's
convection-diffusion operator and its postfiltered M_d; and the adaptive build
of the benchmark's reservoir operator for seeds 0, 1 and 2. The
convection-diffusion build and the seed-0 reservoir build run a second time
with ``threads=2``, so the worker-pool path is compared too. The large
operators come from ``perfbench/generators.py``. BLAS runs on one thread
unless the environment says otherwise, so both sides round alike.

Diagnostics: every build of the 80 small matrices also stores its
``quality_report`` (each field as float64, the per-column residuals last; a
postfiltered M_d is reported against its unfiltered M, at the postfilter
floor). Each small matrix also gets a diagnostics case, drawn from its own
RNG so the builds above stay as they were: right-side builds with drop modes
none, adaptive and fixed at one epsilon and l_max, and
``verify_drop_guarantees`` of the none M against each dropped M, stored as
``applicable``, ``passed`` (NaN for None) and the ``details`` values in key
order, with the check names and key lists beside them.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
RECORD_FIELDS = ("k", "loops_used", "pre_drop_residual", "post_drop_residual", "nnz_final",
                 "met_accuracy", "rank_flag", "guard_flag", "stalled", "tol_min", "tol_max")


def _small_matrix(rng, case: int):
    """Small-integer matrix; case % 4 picks plain, block-diagonal, one zero
    column, or both."""
    n = int(rng.integers(4, 26))
    dense = rng.integers(-3, 4, size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.15, 0.6))
    dense = dense.astype(np.float64)
    if rng.random() < 0.7:
        dense[np.diag_indices(n)] += rng.integers(1, 2 * n, size=n)
    if case % 4 in (1, 3):
        cut = int(rng.integers(1, n))
        dense[:cut, cut:] = 0.0
        dense[cut:, :cut] = 0.0
    if case % 4 in (2, 3):
        dense[:, int(rng.integers(n))] = 0.0
    return dense


def _quality(A, P, epsilon, reference=None) -> dict:
    """``quality_report`` of P, every field as float64, per-column residuals last."""
    from saiprec.diagnostics import quality_report

    rep = quality_report(A, P, epsilon, reference)
    return {"quality": np.concatenate([np.atleast_1d(np.asarray(getattr(rep, f.name), float))
                                       for f in dataclasses.fields(rep)])}


def _checks(A, M, M_d, epsilon) -> dict:
    """``verify_drop_guarantees``: names and details keys, and per check
    ``applicable``, ``passed`` (NaN for None) and the details values."""
    from saiprec.diagnostics import verify_drop_guarantees

    checks = verify_drop_guarantees(A, M, M_d, epsilon)
    return {
        "check_keys": np.array([f"{c.name}:{','.join(c.details)}" for c in checks]),
        "checks": np.array([v for c in checks for v in (
            c.applicable, np.nan if c.passed is None else c.passed, *c.details.values())], float),
    }


def _static(A, kind, power, floor, threads=1, diagnose=False):
    from saiprec import static

    P = static.static_build(A, static.make_pattern(A, kind, power), threads=threads)
    Md = static.postfilter(A, P, floor=floor)
    if not diagnose:
        return [("M", P, {}), ("Md", Md, {})]
    return [("M", P, _quality(A, P, floor)), ("Md", Md, _quality(A, Md, floor, reference=P))]


def _small_build(A, params):
    from saiprec import build_preconditioner

    P = build_preconditioner(A, params)
    return [("M", P, _quality(A, P, params.epsilon))]


def _diagnostics(A, epsilon, l_max, tol):
    """Right-side builds with drop modes none, adaptive and fixed, each with
    its quality report, and the guarantee checks of the none M against each
    dropped M."""
    from saiprec import SaiParams, build_preconditioner

    plain = build_preconditioner(A, SaiParams(epsilon=epsilon, l_max=l_max, drop_mode="none"))
    out = [("none", plain, _quality(A, plain, epsilon))]
    for mode in ("adaptive", "fixed"):
        params = SaiParams(epsilon=epsilon, l_max=l_max, drop_mode=mode,
                           tol=tol if mode == "fixed" else None)
        P = build_preconditioner(A, params)
        out.append((mode, P, {**_quality(A, P, epsilon, reference=plain),
                              **_checks(A, plain.M, P.M, epsilon)}))
    return out


def _configs():
    """(name, thunk) pairs; each thunk returns a list of (label,
    Preconditioner, extra arrays)."""
    from saiprec import SaiParams, SparseMatrix, build_preconditioner
    import generators

    rng = np.random.default_rng(20240601)
    static_rng = np.random.default_rng(20240602)  # apart, so the other builds stay as they were
    diag_rng = np.random.default_rng(20240603)  # apart for the same reason
    for case in range(80):
        dense = _small_matrix(rng, case)
        A = SparseMatrix.from_dense(dense)
        for kind in ("abs", "normal"):
            power, floor = int(static_rng.integers(1, 4)), float(static_rng.uniform(0.0, 0.3))
            if np.any(dense, axis=1).all():
                yield (f"small{case:02d}-static-{kind}{power}",
                       lambda A=A, kind=kind, power=power, floor=floor:
                       _static(A, kind, power, floor, diagnose=True))
        for mode in ("none", "adaptive", "fixed"):
            params = SaiParams(
                epsilon=float(rng.uniform(0.05, 0.45)),
                l_max=int(rng.integers(1, 11)),
                drop_mode=mode,
                tol=float(10.0 ** rng.uniform(-4, -0.5)) if mode == "fixed" else None,
                side=("right", "left")[int(rng.integers(2))],
            )
            yield (f"small{case:02d}-{mode}-{params.side}",
                   lambda A=A, params=params: _small_build(A, params))
        epsilon, l_max = float(diag_rng.uniform(0.05, 0.45)), int(diag_rng.integers(1, 11))
        tol = float(10.0 ** diag_rng.uniform(-4, -0.5))
        yield (f"small{case:02d}-diagnostics",
               lambda A=A, epsilon=epsilon, l_max=l_max, tol=tol:
               _diagnostics(A, epsilon, l_max, tol))

    def cd3d(threads):
        return _static(generators.convection_diffusion_3d(), "iplusa", 3, 0.1, threads)

    def reservoir(seed, threads):
        params = SaiParams(epsilon=0.2, l_max=8, drop_mode="adaptive")
        A = generators.reservoir_3d(seed, 5.0, 1.02)
        return [("M", build_preconditioner(A, params, threads=threads), {})]

    yield "static-cd3d", lambda: cd3d(1)
    for seed in (0, 1, 2):
        yield f"adaptive-reservoir-{seed}", lambda seed=seed: reservoir(seed, 1)
    yield "static-cd3d-threads2", lambda: cd3d(2)
    yield "adaptive-reservoir-0-threads2", lambda: reservoir(0, 2)


def _record_array(records) -> np.ndarray:
    """Records as one float64 row each; None becomes NaN (compared bitwise)."""
    return np.array([[np.nan if getattr(r, f) is None else float(getattr(r, f))
                      for f in RECORD_FIELDS] for r in records])


def cmd_run(src: Path, out: Path) -> int:
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    arrays = {}
    for name, build in _configs():
        for label, P, extra in build():
            key = f"{name}/{label}"
            arrays[f"{key}/col_ptr"] = P.M.col_ptr
            arrays[f"{key}/row_idx"] = P.M.row_idx
            arrays[f"{key}/values"] = P.M.values
            arrays[f"{key}/a_one_norm"] = np.array([P.a_one_norm])
            arrays[f"{key}/records"] = _record_array(P.records)
            arrays.update({f"{key}/{what}": value for what, value in extra.items()})
        print(name, flush=True)
    np.savez_compressed(out, **arrays)
    print(f"wrote {len({key.rsplit('/', 1)[0] for key in arrays})} builds to {out}")
    return 0


def cmd_compare(first: Path, second: Path) -> int:
    with np.load(first, allow_pickle=False) as a, np.load(second, allow_pickle=False) as b:
        keys = sorted(set(a.files) | set(b.files))
        differ = {}
        for key in keys:
            same = (key in a.files and key in b.files and a[key].dtype == b[key].dtype
                    and a[key].shape == b[key].shape and a[key].tobytes() == b[key].tobytes())
            if not same:
                name, label, what = key.split("/")
                differ.setdefault(f"{name}/{label}", []).append(what)
    builds = len({k.rsplit("/", 1)[0] for k in keys})
    for build, fields in sorted(differ.items()):
        print(f"DIFFERS {build}: {', '.join(fields)}")
    print(f"{len(differ)} of {builds} builds differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="build every configuration and write an .npz")
    p_run.add_argument("--src", type=Path, required=True, help="directory holding saiprec/")
    p_run.add_argument("--out", type=Path, required=True)
    p_cmp = sub.add_parser("compare", help="list the builds that differ between two files")
    p_cmp.add_argument("first", type=Path)
    p_cmp.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.src, args.out)
    return cmd_compare(args.first, args.second)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Bit-identity harness for the preconditioner builds and the benchmark's solves.

``run`` builds a fixed set of configurations with the saiprec found under
``--src`` and writes, for each one, the arrays of M (and of the postfiltered
M_d for the static builds), ``a_one_norm`` and the ``RECORD_FIELDS`` of
every build record to one ``.npz`` file; for the small matrices it also writes the
``quality_report`` of every build and the ``verify_drop_guarantees`` checks
of the diagnostics cases, for the one-worker builds of the benchmark
operators the ``check_nonsingular`` verdict and rcond of M, and for their
seed-0 builds the benchmark's solves. ``compare`` lists the configurations
whose arrays differ in any bit between two such files, and every solve that
differs in any bit; a differing quality row is named by the
``QualityReport`` fields that differ, as in ``quality[nonsingular, rcond]``,
a differing verdict row likewise, as in ``check_nonsingular[rcond]``, and a
differing solve by its fields, as in ``DIFFERS
static-cd3d/M/solve-gmres-03: iterate, residual_history``. It prints how many
builds differ and, per side (right, left, none), how many solves, and exits 1
if anything differs or is missing in one file. From the repository root:

    python3 tools/compare_builds.py run --src <checkout>/src --out before.npz
    python3 tools/compare_builds.py run --src src --out after.npz
    python3 tools/compare_builds.py compare before.npz after.npz
    python3 tools/compare_builds.py compare before.npz after.npz --rtol 1e-12

With ``--rtol``, for a change that moves rounding, the solves are skipped and
each column k of M (of the operand, for a left-side build) is compared as a
dense vector, a missing entry counting as 0, and passes when ||m_k -
m'_k||_2 <= rtol * max(||m_k||_2, 1/||A||_1). Records must match exactly,
except the residuals (within rtol, relative to max(r, 1)) and the postfilter
tolerances (within rtol, relative). Every column outside that is listed with
its cause and its margin: entries of rounding size that are exactly 0.0 on
the other side; a guard that chose between two magnitudes that tie or are
noise (``guard_gap`` below 1e-10); or a postfilter tolerance moved because
nnz(m_k) counted such an entry. A column with no such cause, a missing
array, a differing ``a_one_norm``, a diagnostic outside rtol with no
divergent column to explain it, or a two-worker build that differs in any
bit from its one-worker twin fails the comparison (exit code 1).

The set: 240 small random builds (80 matrices of order 4-25 with
small-integer entries, some block-diagonal, some with a zero column, each
built with drop modes none, adaptive and fixed, on the right or the left side,
with random epsilon and l_max); the static builds of the same 80 matrices on
their "abs" and "normal" patterns (random power 1-3, random postfilter floor)
and the postfiltered M_d of each, except where a zero row of A leaves a
pattern column empty; and the builds of the benchmark workloads of
``perfbench/workloads.py``, with its operators, parameters, right-hand sides
and solvers: the static (I+A)^power build of the convection-diffusion
operator and its postfiltered M_d, and the adaptive build of the reservoir
operator for seeds 0, 1 and 2. Each seed-0 benchmark build also runs a
second time with two workers, so the worker-pool path is compared too. The
one-worker benchmark builds each store ``check_nonsingular``'s
``(nonsingular, rcond)`` as a float64 row, one LU each. BLAS runs on one
thread unless the environment says otherwise, so both sides round alike.

Diagnostics: every build of the 80 small matrices also stores its
``quality_report`` (each field as float64, the per-column residuals last; a
postfiltered M_d is reported against its unfiltered M, at the postfilter
floor). Each small matrix also gets a diagnostics case, drawn from its own
RNG so the builds above stay as they were: right-side builds with drop modes
none, adaptive and fixed at one epsilon and l_max, and
``verify_drop_guarantees`` of the none M against each dropped M, stored as
``applicable``, ``passed`` (NaN for None) and the ``details`` values in key
order, with the check names and key lists beside them.

Solves: on each seed-0 benchmark operator, every solver of the workload runs
right-preconditioned on every right-hand side with each M the workload
solves with (M, and M_d for the static build). An adaptive workload also
builds M with ``side="left"`` (label ``M-left``, stored as one more build)
and runs every solver left-preconditioned with it on every right-hand side.
Every solver also runs unpreconditioned (label ``none``, no build arrays) on
the first ``NONE_RHS`` right-hand sides. A solve is stored under its build
as ``solve-<method>-<rhs>``: ``iters``, ``converged``, ``matvecs`` and
``final_rel_residual``, with the SHA-256 digests of its iterate and of its
residual history under the same name plus ``#sha256``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
RECORD_FIELDS = ("k", "loops_used", "pre_drop_residual", "post_drop_residual", "nnz_final",
                 "rank_flag", "guard_flag", "stalled", "tol_min", "tol_max")
RESIDUALS = ("pre_drop_residual", "post_drop_residual")
# QualityReport's fields in the order of a stored quality row; the last one
# fills the rest of the row, one entry per column
QUALITY_FIELDS = ("r_max", "coln", "spar", "am_minus_i_one_norm", "p", "p_d", "nonsingular",
                  "rcond", "per_column_residuals")
# the fields of each stored row whose differing entries ``compare`` names
ROWS = {"quality": QUALITY_FIELDS, "check_nonsingular": ("nonsingular", "rcond")}
RESIDUAL_NORM = QUALITY_FIELDS.index("am_minus_i_one_norm")
STRUCT_COUNTS = {QUALITY_FIELDS.index("p"), QUALITY_FIELDS.index("p_d")}
GUARD_TIE = 1e-10  # a guard gap below this, relative to the column's scale, is a tie or noise
TOLERANCES = ("tol_min", "tol_max")
SEEDS = (0, 1, 2)  # of the reservoir operator; the convection-diffusion one draws none
NONE_RHS = 3  # right-hand sides solved without a preconditioner, per operator
SOLVE = "solve-"  # prefix of the array name of a stored solve
SOLVE_FIELDS = ("iters", "converged", "matvecs", "final_rel_residual")
DIGESTS = ("iterate", "residual_history")
DIGEST_KEY = "#sha256"  # suffix of the array that holds a solve's digests
SIDES = ("right", "left", "none")


def _row_label(what: str, differs: np.ndarray) -> str:
    """``<what>[<field>, ...]``, naming the fields of a stored row of ROWS at
    whose entries the mask ``differs`` is set; the last field fills the rest
    of the row."""
    fields = ROWS[what]
    named = sorted({min(int(i), len(fields) - 1) for i in np.flatnonzero(differs)})
    return f"{what}[{', '.join(fields[i] for i in named)}]"


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


def _nonsingular(P) -> dict:
    """``check_nonsingular`` of P's M as the row ``[nonsingular, rcond]``."""
    from saiprec.diagnostics import check_nonsingular

    return {"check_nonsingular": np.array(check_nonsingular(P.M), float)}


def _static(A, kind, power, floor, threads=1, diagnose=False):
    from saiprec import static

    P = static.static_build(A, static.make_pattern(A, kind, power), threads=threads)
    Md = static.postfilter(A, P, floor=floor)
    if not diagnose:
        return [("M", P, {}), ("Md", Md, {})]
    return [("M", P, _quality(A, P, floor)), ("Md", Md, _quality(A, Md, floor, reference=P))]


def _build(A, params, threads=1):
    """``build_preconditioner`` with, in one process, the guard's margin of
    each column: every shrink that keeps a single entry (the guard's case
    among them) is watched, and ``guard_gap`` holds per column the smallest
    gap between the two largest pre-drop magnitudes, over max(||m_k||_2,
    1/||A||_1); NaN where no such shrink ran."""
    from saiprec import build_preconditioner
    from saiprec.lsq import ColumnLeastSquares

    if threads != 1:
        return build_preconditioner(A, params, threads=threads), {}
    events = []
    shrink = ColumnLeastSquares.shrink

    def watched(state, removed):
        if state.support.size - len(removed) == 1:
            magnitude = np.abs(state.solution)
            top = np.sort(magnitude)[-2:]
            events.append((state.k, top[1] - top[0], np.linalg.norm(magnitude)))
        return shrink(state, removed)

    ColumnLeastSquares.shrink = watched
    try:
        P = build_preconditioner(A, params)
    finally:
        ColumnLeastSquares.shrink = shrink
    gap = np.full(P.M.ncols, np.nan)
    for k, apart, norm in events:
        gap[k] = np.fmin(gap[k], apart / max(norm, 1.0 / P.a_one_norm))
    return P, {"guard_gap": gap}


def _small_build(A, params):
    P, gap = _build(A, params)
    return [("M", P, {**_quality(A, P, params.epsilon), **gap})]


def _diagnostics(A, epsilon, l_max, tol):
    """Right-side builds with drop modes none, adaptive and fixed, each with
    its quality report, and the guarantee checks of the none M against each
    dropped M."""
    from saiprec import SaiParams

    plain, _ = _build(A, SaiParams(epsilon=epsilon, l_max=l_max, drop_mode="none"))
    out = [("none", plain, _quality(A, plain, epsilon))]
    for mode in ("adaptive", "fixed"):
        params = SaiParams(epsilon=epsilon, l_max=l_max, drop_mode=mode,
                           tol=tol if mode == "fixed" else None)
        P, gap = _build(A, params)
        out.append((mode, P, {**_quality(A, P, epsilon, reference=plain),
                              **_checks(A, plain.M, P.M, epsilon), **gap}))
    return out


def _sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def record_solve(arrays: dict, key: str, x, report) -> None:
    """Store one solve under ``key``: its SOLVE_FIELDS, and the digests of
    its iterate and residual history under ``key + DIGEST_KEY``."""
    arrays[key] = np.array([float(getattr(report, f)) for f in SOLVE_FIELDS])
    arrays[key + DIGEST_KEY] = np.array([_sha256(x), _sha256(report.residual_history)])


def _benchmark(w, seed: int, threads: int = 1):
    """The build of workload ``w`` on its operator at ``seed``; with one
    worker, each M with its ``check_nonsingular`` row, and at seed 0 with
    the solves of :func:`_solved`."""
    import workloads

    A = w.make_matrix(seed)
    if w.build == "static":
        built = _static(A, "iplusa", w.power, workloads.FLOOR, threads)
    else:
        P, gap = _build(A, workloads.ADAPTIVE, threads)
        built = [("M", P, gap)]
    if threads != 1:
        return built
    built = [(label, P, {**extra, **_nonsingular(P)}) for label, P, extra in built]
    return _solved(w, A, built) if seed == SEEDS[0] else built


def _solved(w, A, built):
    """``built`` with the workload's solves: right-preconditioned with each
    M it solves with, on every right-hand side; for an adaptive workload,
    the left-side build ``M-left`` and its left-preconditioned solves; and
    the unpreconditioned solves on the first NONE_RHS right-hand sides,
    under the label ``none`` with no M."""
    import generators
    import workloads
    from saiprec import krylov

    rhs = generators.right_hand_sides(A, SEEDS[0], w.rhs_count)

    def solves(M, side, count=len(rhs)):
        out = {}
        for i, b in enumerate(rhs[:count]):
            for params in workloads.SOLVERS:
                x, rep = krylov.solve(A, b, M=M, params=dataclasses.replace(params, side=side))
                record_solve(out, f"{SOLVE}{params.method}-{i:02d}", x, rep)
        return out

    out = [(label, P, {**extra, **solves(P, "right")}) if label in w.solve_with
           else (label, P, extra) for label, P, extra in built]
    if w.build == "adaptive":
        P, gap = _build(A, dataclasses.replace(workloads.ADAPTIVE, side="left"))
        out.append(("M-left", P, {**gap, **_nonsingular(P), **solves(P, "left")}))
    return out + [("none", None, solves(None, "none", NONE_RHS))]


def _configs():
    """(name, thunk) pairs; each thunk returns a list of (label,
    Preconditioner or None, extra arrays)."""
    from saiprec import SaiParams, SparseMatrix
    import workloads

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

    runs = [(f"{w.name}-{seed}" if w.matrix == "reservoir" else w.name, w, seed)
            for w in workloads.WORKLOADS.values()
            for seed in (SEEDS if w.matrix == "reservoir" else SEEDS[:1])]
    for name, w, seed in runs:
        yield name, lambda w=w, seed=seed: _benchmark(w, seed)
    for name, w, seed in runs:
        if seed == SEEDS[0]:
            yield f"{name}-threads2", lambda w=w, seed=seed: _benchmark(w, seed, threads=2)


def _record_array(records) -> np.ndarray:
    """Records as one float64 row each, every field read by its name, so that
    a record table (a tolerance of NaN for a column with no drop step) and a
    list of record objects (None there) give the same bytes."""
    return np.column_stack([np.array([getattr(r, f) for r in records], dtype=np.float64)
                            for f in RECORD_FIELDS])


def cmd_run(src: Path, out: Path) -> int:
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    arrays = {}
    for name, build in _configs():
        for label, P, extra in build():
            key = f"{name}/{label}"
            if P is not None:
                arrays[f"{key}/col_ptr"] = P.M.col_ptr
                arrays[f"{key}/row_idx"] = P.M.row_idx
                arrays[f"{key}/values"] = P.M.values
                arrays[f"{key}/a_one_norm"] = np.array([P.a_one_norm])
                arrays[f"{key}/left"] = np.array([P.side == "left"])
                arrays[f"{key}/records"] = _record_array(P.records)
            arrays.update({f"{key}/{what}": value for what, value in extra.items()})
        print(name, flush=True)
    np.savez_compressed(out, **arrays)
    solves = sum(_is_solve(key) for key in arrays) // 2
    print(f"wrote {len(_builds(arrays))} builds and {solves} solves to {out}")
    return 0


def _is_solve(key: str) -> bool:
    return key.rsplit("/", 1)[1].startswith(SOLVE)


def _builds(keys) -> set:
    """``<config>/<label>`` of every build that ``keys`` hold arrays of."""
    return {key.rsplit("/", 1)[0] for key in keys if not _is_solve(key)}


def _solve_line(a: dict, b: dict, key: str, first: Path, second: Path) -> str | None:
    """The line naming what differs, bit for bit, between the two stored
    copies of the solve ``key``, or None when nothing does."""
    if not all(k in f for f in (a, b) for k in (key, key + DIGEST_KEY)):
        in_first = key in a and key + DIGEST_KEY in a
        return f"MISSING {key}: only in {first if in_first else second}"
    moved = [f"{f} {va!r} -> {vb!r}"
             for f, va, vb in zip(SOLVE_FIELDS, a[key].tolist(), b[key].tolist())
             if np.float64(va).tobytes() != np.float64(vb).tobytes()]
    da, db = a[key + DIGEST_KEY], b[key + DIGEST_KEY]
    moved += [name for name, ha, hb in zip(DIGESTS, da, db) if ha != hb]
    return f"DIFFERS {key}: {', '.join(moved)}" if moved else None


def cmd_compare(first: Path, second: Path, rtol: float | None = None) -> int:
    with np.load(first, allow_pickle=False) as fa, np.load(second, allow_pickle=False) as fb:
        a, b = dict(fa), dict(fb)
    if rtol is not None:
        a, b = ({k: v for k, v in x.items() if not _is_solve(k)} for x in (a, b))
        return _compare_within(a, b, rtol)
    keys = sorted(set(a) | set(b))
    differ, solves = {}, []  # solves: (side, line or None) in key order
    for key in keys:
        if _is_solve(key):
            if not key.endswith(DIGEST_KEY):
                label = key.split("/")[1]
                side = "none" if label == "none" else "left" if label.endswith("-left") else "right"
                solves.append((side, _solve_line(a, b, key, first, second)))
            continue
        same = (key in a and key in b and a[key].dtype == b[key].dtype
                and a[key].shape == b[key].shape and a[key].tobytes() == b[key].tobytes())
        if not same:
            name, label, what = key.split("/")
            if what in ROWS and key in a and key in b and a[key].shape == b[key].shape \
                    and a[key].dtype == b[key].dtype == np.float64:
                what = _row_label(what, a[key].view(np.uint64) != b[key].view(np.uint64))
            differ.setdefault(f"{name}/{label}", []).append(what)
    for build, fields in sorted(differ.items()):
        print(f"DIFFERS {build}: {', '.join(fields)}")
    for _, line in solves:
        if line is not None:
            print(line)
    print(f"{len(differ)} of {len(_builds(keys))} builds differ")
    for side in SIDES:
        lines = [line for s, line in solves if s == side]
        if lines:
            count = sum(line is not None for line in lines)
            print(f"{side} side: {count} of {len(lines)} solves differ")
    return 1 if differ or any(line is not None for _, line in solves) else 0


def _matrix(arrays: dict, build: str):
    """M of ``build`` as scipy CSC, transposed for a left-side build so that
    column k is the column that record k describes."""
    import scipy.sparse as sp

    col_ptr = arrays[f"{build}/col_ptr"]
    n = col_ptr.size - 1
    M = sp.csc_matrix((arrays[f"{build}/values"], arrays[f"{build}/row_idx"], col_ptr),
                      shape=(n, n))
    return M.T.tocsc() if arrays[f"{build}/left"][0] else M


def _column_norms(S) -> np.ndarray:
    return np.sqrt(np.asarray(S.multiply(S).sum(axis=0)).ravel())


def _column_max(S) -> np.ndarray:
    return S.max(axis=0).toarray().ravel() if S.nnz else np.zeros(S.shape[1])


def _record_misfits(ra, rb, rtol: float, postfiltered: bool) -> dict:
    """Per record field, a mask of the columns where the two sides disagree:
    exactly, or by more than rtol for the residuals (relative to max(r, 1))
    and for the postfilter tolerances (relative)."""
    out = {}
    for j, field in enumerate(RECORD_FIELDS):
        x, y = ra[:, j], rb[:, j]
        if field in RESIDUALS:
            bad = ~(np.abs(x - y) <= rtol * np.maximum(np.abs(x), 1.0))
        elif postfiltered and field in TOLERANCES:
            bad = ~(np.abs(x - y) <= rtol * np.abs(x))
        else:
            bad = ~((x == y) | (np.isnan(x) & np.isnan(y)))
        if bad.any():
            out[field] = bad
    return out


def _diverging_columns(a: dict, b: dict, build: str, rtol: float, noisy_in_m: dict):
    """(column, cause, margin, rounding-level) for every column of ``build``
    that differs beyond the tolerance, and the columns whose entry count
    changed through noise (for the postfiltered M_d of the same build)."""
    Ma, Mb = _matrix(a, build), _matrix(b, build)
    scale = np.maximum(_column_norms(Ma), 1.0 / a[f"{build}/a_one_norm"][0])
    apart = _column_norms(Ma - Mb)
    Pa, Pb = Ma.copy(), Mb.copy()
    Pa.data[:], Pb.data[:] = 1.0, 1.0
    X = (Pa - Pb).tocsc()  # +1: entry only in the first M, -1: only in the second
    one_sided = np.diff(X.indptr) > 0
    only = _column_max(abs(Ma).multiply(X > 0) + abs(Mb).multiply(X < 0))
    nan = np.full(Ma.shape[1], np.nan)
    gap = np.fmin(a.get(f"{build}/guard_gap", nan), b.get(f"{build}/guard_gap", nan))
    ra, rb = a[f"{build}/records"], b[f"{build}/records"]
    misfits = _record_misfits(ra, rb, rtol, build.endswith("/Md"))
    record_bad = np.zeros(Ma.shape[1], dtype=bool)
    for bad in misfits.values():
        record_bad |= bad
    guard, nnz, tol = (RECORD_FIELDS.index(f) for f in ("guard_flag", "nnz_final", "tol_min"))
    rows, noisy = [], {}
    for k in np.flatnonzero((apart > rtol * scale) | one_sided | record_bad):
        fields = {f for f, bad in misfits.items() if bad[k]}
        within = apart[k] <= rtol * scale[k]
        if within and fields <= {"nnz_final"}:
            noisy[k] = (f"{ra[k, nnz]:.0f} vs {rb[k, nnz]:.0f}", only[k] / scale[k])
            rows.append((k, "entries exactly 0.0 on the other side", only[k] / scale[k], True))
        elif ra[k, guard] == rb[k, guard] == 1.0 and gap[k] <= GUARD_TIE:
            rows.append((k, "the guard kept one of two magnitudes that tie or are noise",
                         gap[k], True))
        elif k in noisy_in_m and fields <= {"nnz_final", "guard_flag", *RESIDUALS, *TOLERANCES}:
            counts, margin = noisy_in_m[k]
            moved = abs(ra[k, tol] - rb[k, tol]) / ra[k, tol]
            rows.append((k, f"postfilter counted noise entries of M in nnz(m_k) ({counts}), "
                            f"which moved its tolerance by {moved:.3g}", margin, True))
        else:
            rows.append((k, f"no rounding-level cause (|dm|/scale {apart[k] / scale[k]:.3g}, "
                            f"records {sorted(fields)})", apart[k] / scale[k], False))
    return rows, noisy


def _extras_apart(a: dict, b: dict, build: str, rtol: float) -> list:
    """(name, rounding-level cause or None) for each stored diagnostic
    (quality report, guarantee checks) of ``build`` that differs beyond
    rtol, relative to the larger magnitude or 1: they are residual norms,
    ratios and counts, whose scale is that of ||e_k|| = 1."""
    out = []
    for key in sorted(k for k in a if k.startswith(f"{build}/")):
        what = key.rsplit("/", 1)[1]
        if what in ("col_ptr", "row_idx", "values", "a_one_norm", "records", "guard_gap"):
            continue
        x, y = a[key], b[key]
        if x.shape != y.shape or x.dtype.kind != "f":
            if not np.array_equal(x, y):
                out.append((what, None))
            continue
        apart = ~((np.abs(x - y) <= rtol * np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0))
                  | (np.isnan(x) & np.isnan(y)))
        if not apart.any():
            continue
        cause = None
        if what == "quality" and set(np.flatnonzero(apart)) <= STRUCT_COUNTS:
            # p and p_d count entries of A M - I above 1e-14; with ||A M - I||_1
            # (so every entry) below rtol on both sides, which entries pass is rounding
            norms = [x[RESIDUAL_NORM], y[RESIDUAL_NORM]]
            if build.endswith("/Md"):
                reference = build[:-1]
                norms += [a[f"{reference}/quality"][RESIDUAL_NORM],
                          b[f"{reference}/quality"][RESIDUAL_NORM]]
            if max(norms) <= rtol:
                cause = (f"p/p_d count entries of A M - I above 1e-14, and ||A M - I||_1 "
                         f"is at most {max(norms):.3g}")
        out.append((_row_label(what, apart) if what in ROWS else what, cause))
    return out


def _worker_invariance(arrays: dict) -> list:
    """Builds run with two workers whose arrays differ in any bit from the
    same build run in one process."""
    out = []
    for key in sorted(k for k in arrays if "-threads2/" in k):
        twin = key.replace("-threads2/", "/")
        if arrays[key].tobytes() != arrays[twin].tobytes():
            out.append(key)
    return out


def _compare_within(a: dict, b: dict, rtol: float) -> int:
    """Tolerance mode: every column within rtol normwise, records exact
    except residuals and postfilter tolerances, and every column outside
    that attributed to a rounding-level cause."""
    failures = [f"missing in one file: {key}" for key in sorted(set(a) ^ set(b))]
    for name, arrays in (("first", a), ("second", b)):
        failures += [f"{name} file: {key} differs between 1 and 2 workers"
                     for key in _worker_invariance(arrays)]
    builds = sorted({k.rsplit("/", 1)[0] for k in a if k in b})
    bitwise = sum(any(a[k].tobytes() != b[k].tobytes() for k in a if k.startswith(f"{build}/"))
                  for build in builds)
    listed, noisy_in_m = 0, {}
    for build in builds:  # "<name>/M" sorts before "<name>/Md"
        if a[f"{build}/a_one_norm"].tobytes() != b[f"{build}/a_one_norm"].tobytes():
            failures.append(f"{build}: a_one_norm differs")
            continue
        name = build.rsplit("/", 1)[0]
        rows, noisy = _diverging_columns(a, b, build, rtol, noisy_in_m.get(name, {}))
        if build.endswith("/M"):
            noisy_in_m[name] = noisy
        for k, cause, margin, rounding in rows:
            print(f"{'DIVERGES' if rounding else 'FAILS'} {build} column {k}: {cause}; "
                  f"margin {margin:.3g}")
            if not rounding:
                failures.append(f"{build} column {k}")
        listed += len(rows)
        for what, cause in _extras_apart(a, b, build, rtol):
            if cause is None and not rows:
                failures.append(f"{build}: {what} differs beyond rtol with every column within it")
            else:
                print(f"DIVERGES {build}: {what}, {cause or 'from the columns above'}")
    for failure in failures:
        print(f"FAILS {failure}")
    print(f"{bitwise} of {len(builds)} builds differ in some bit; {listed} columns diverge "
          f"(values beyond rtol {rtol:g}, or records); {len(failures)} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="build every configuration and write an .npz")
    p_run.add_argument("--src", type=Path, required=True, help="directory holding saiprec/")
    p_run.add_argument("--out", type=Path, required=True)
    p_cmp = sub.add_parser("compare", help="list the builds that differ between two files")
    p_cmp.add_argument("first", type=Path)
    p_cmp.add_argument("second", type=Path)
    p_cmp.add_argument("--rtol", type=float, default=None,
                       help="compare each column within rtol normwise instead of bit for bit")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.src, args.out)
    return cmd_compare(args.first, args.second, args.rtol)


if __name__ == "__main__":
    raise SystemExit(main())

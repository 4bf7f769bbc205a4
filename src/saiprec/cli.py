"""Benchmark command line: build preconditioners, solve systems, run the
drop-tolerance sweeps and the static-pattern studies, and print summary tables.

Experiments are described by flags or by a line-oriented ``key = value`` spec
file with bracketed sections; flags override file values. The right-hand side
of every solve is synthesized as b = A * ones unless a vector file is given.
All floating-point CSV fields carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datasets
from .core import SparseMatrix, load_matrix_market, save_matrix_market
from .diagnostics import check_nonsingular
from .krylov import SolveParams, solve
from .psai import Preconditioner, SaiParams, build_preconditioner
from .static import make_pattern, postfilter, static_build


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _append_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@dataclass
class ExperimentSpec:
    matrices: list[Path] = field(default_factory=list)
    sai: SaiParams = field(default_factory=SaiParams)
    solvers: list[SolveParams] = field(default_factory=list)
    scalings: list[float] = field(default_factory=lambda: [1.0, 0.5, 0.1, 0.01, 0.0])
    fixed_tols: list[float] = field(default_factory=list)
    patterns: list[tuple[str, int]] = field(default_factory=lambda: [("iplusa", 3)])
    out: Path = Path("out")
    threads: int = 1
    floor: float = 0.1
    no_precond: bool = False
    precond_path: Path | None = None

    def __post_init__(self):
        if not self.solvers:
            self.solvers = [
                SolveParams(method="bicgstab", side=self.sai.side),
                SolveParams(method="gmres", restart=50, side=self.sai.side),
            ]


def _parse_drop(text: str):
    text = text.strip()
    if text == "adaptive":
        return "adaptive", None
    if text == "none":
        return "none", None
    if text.startswith("fixed:"):
        return "fixed", float(text.split(":", 1)[1])
    raise ValueError(f"drop must be adaptive, none or fixed:<tol>, got {text!r}")


def _parse_method(text: str) -> SolveParams:
    text = text.strip()
    if text == "bicgstab":
        return SolveParams(method="bicgstab")
    if text == "gmres":
        return SolveParams(method="gmres", restart=50)
    if text.startswith("gmres:"):
        return SolveParams(method="gmres", restart=int(text.split(":", 1)[1]))
    raise ValueError(f"method must be bicgstab or gmres:<m>, got {text!r}")


def _parse_pattern(text: str) -> tuple[str, int]:
    kind, _, power = text.strip().partition(":")
    return kind, int(power) if power else 3


def _csv_list(text: str) -> list[str]:
    return [t.strip() for t in text.replace("\n", ",").split(",") if t.strip()]


def load_spec_file(path) -> dict:
    """Parse the line-oriented spec file into plain option values."""
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    values: dict = {}
    if parser.has_section("matrices"):
        values["matrices"] = _csv_list(parser.get("matrices", "paths", fallback=""))
    if parser.has_section("sai"):
        sec = parser["sai"]
        values["eps"] = sec.getfloat("eps", fallback=None)
        values["lmax"] = sec.getint("lmax", fallback=None)
        values["drop"] = sec.get("drop", fallback=None)
        values["side"] = sec.get("side", fallback=None)
    if parser.has_section("solve"):
        sec = parser["solve"]
        if sec.get("methods", fallback=None):
            values["methods"] = _csv_list(sec.get("methods"))
        values["rel_tol"] = sec.getfloat("rel_tol", fallback=None)
        values["max_iters"] = sec.getint("max_iters", fallback=None)
    if parser.has_section("sweep"):
        sec = parser["sweep"]
        if sec.get("scalings", fallback=None):
            values["scalings"] = [float(t) for t in _csv_list(sec.get("scalings"))]
        if sec.get("fixed_tols", fallback=None):
            values["fixed_tols"] = [float(t) for t in _csv_list(sec.get("fixed_tols"))]
    if parser.has_section("static"):
        sec = parser["static"]
        if sec.get("patterns", fallback=None):
            values["patterns"] = [_parse_pattern(t) for t in _csv_list(sec.get("patterns"))]
        values["floor"] = sec.getfloat("floor", fallback=None)
    if parser.has_section("output"):
        sec = parser["output"]
        values["out"] = sec.get("dir", fallback=None)
        values["threads"] = sec.getint("threads", fallback=None)
    return {k: v for k, v in values.items() if v is not None}


def spec_from_args(args) -> ExperimentSpec:
    values: dict = {}
    if getattr(args, "spec", None):
        values = load_spec_file(args.spec)

    def pick(name, default=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        return values.get(name, default)

    matrices = [Path(p) for p in (pick("matrices") or [])]
    if getattr(args, "matrix", None):
        matrices = [Path(p) for p in args.matrix]
    drop_mode, tol = _parse_drop(pick("drop", "adaptive"))
    sai = SaiParams(
        epsilon=float(pick("eps", 0.3)),
        l_max=int(pick("lmax", 10)),
        drop_mode=drop_mode,
        tol=tol,
        side=pick("side", "right"),
    )
    rel_tol = float(pick("rel_tol", 1e-8))
    max_iters = int(pick("max_iters", 1000))
    methods = pick("methods", ["bicgstab", "gmres:50"])
    solvers = []
    for m in methods:
        base = _parse_method(m)
        solvers.append(
            SolveParams(
                method=base.method,
                restart=base.restart,
                rel_tol=rel_tol,
                max_iters=max_iters,
                side="none" if getattr(args, "no_precond", False) else sai.side,
            )
        )
    scalings = pick("scalings", [1.0, 0.5, 0.1, 0.01, 0.0])
    if getattr(args, "scalings", None):
        scalings = [float(t) for t in _csv_list(args.scalings)]
    fixed_tols = pick("fixed_tols", [])
    if getattr(args, "fixed_tols", None):
        fixed_tols = [float(t) for t in _csv_list(args.fixed_tols)]
    patterns = pick("patterns", [("iplusa", 3)])
    if getattr(args, "pattern", None):
        patterns = [_parse_pattern(t) for t in args.pattern]
    threads = int(pick("threads", 0) or 0)
    if threads <= 0:
        threads = os.cpu_count() or 1  # --threads 1 for timing-stable runs
    return ExperimentSpec(
        matrices=matrices,
        sai=sai,
        solvers=solvers,
        scalings=list(scalings),
        fixed_tols=list(fixed_tols),
        patterns=list(patterns),
        out=Path(pick("out", "out")),
        threads=threads,
        floor=float(pick("floor", 0.1)),
        no_precond=bool(getattr(args, "no_precond", False)),
        precond_path=Path(args.precond) if getattr(args, "precond", None) else None,
    )


def _require_matrices(spec: ExperimentSpec):
    if not spec.matrices:
        raise SystemExit("no matrices given: use --matrix or a spec file")
    for p in spec.matrices:
        if not Path(p).exists():
            raise SystemExit(f"matrix file not found: {p}")


def _drop_label(params: SaiParams) -> str:
    if params.drop_mode == "fixed":
        return f"fixed:{params.tol:g}"
    if params.drop_mode == "none" or params.drop_scale == 0.0:
        return "none"
    if params.drop_scale != 1.0:
        return f"adaptive*{params.drop_scale:g}"
    return "adaptive"


BUILD_HEADER = [
    "matrix", "n", "nnz", "eps", "lmax", "drop", "side", "spar", "r_max",
    "r_max_post", "coln", "mintol", "maxtol", "nonsingular", "pivot_min", "ptime",
]
COLUMNS_HEADER = ["k", "pre_drop", "post_drop", "nnz", "loops", "drop"]
SOLVE_HEADER = [
    "matrix", "method", "side", "precond", "converged", "dagger", "iters",
    "matvecs", "precond_applies", "rel_residual", "stime",
]
SWEEP_HEADER = [
    "matrix", "mode", "value", "spar", "ptime", "iter_b", "iter_g", "dagger_b",
    "dagger_g", "r_max", "r_max_post", "mintol", "maxtol", "nonsingular",
]
STATIC_HEADER = [
    "matrix", "pattern", "variant", "ptime_pattern", "ptime_build",
    "ptime_filter", "ptime", "spar", "iter_b", "iter_g", "stime_b", "stime_g",
    "r_max",
]


def _build_one(path: Path, sai: SaiParams, threads: int):
    A = load_matrix_market(path)
    P = build_preconditioner(A, sai, threads=threads)
    return A, P


def _build_rows(name: str, A: SparseMatrix, P: Preconditioner):
    nonsingular, pivot_min = check_nonsingular(P.M)
    tol_min, tol_max = P.tol_range()
    sai = P.params
    summary = [
        name, A.nrows, A.nnz, sai.epsilon, sai.l_max, _drop_label(sai), sai.side,
        P.spar, P.r_max, P.r_max_post, P.coln(sai.epsilon), tol_min, tol_max,
        nonsingular, pivot_min, P.build_time,
    ]
    label = _drop_label(sai)
    columns = [
        [r.k, r.pre_drop_residual, r.post_drop_residual, r.nnz_final, r.loops_used, label]
        for r in P.records
    ]
    return summary, columns


def cmd_build(spec: ExperimentSpec) -> int:
    _require_matrices(spec)
    spec.out.mkdir(parents=True, exist_ok=True)
    for path in spec.matrices:
        name = Path(path).stem.replace(".mtx", "")
        A, P = _build_one(path, spec.sai, spec.threads)
        summary, columns = _build_rows(name, A, P)
        save_matrix_market(spec.out / f"{name}_M.mtx", P.M,
                           comment=f"SAI of {name}, {_drop_label(spec.sai)}")
        _write_csv(spec.out / f"{name}_build.csv", BUILD_HEADER, [summary])
        _write_csv(spec.out / f"{name}_columns.csv", COLUMNS_HEADER, columns)
        print(
            f"{name}: n={A.nrows} nnz={A.nnz} spar={P.spar:.2f} "
            f"r_max={P.r_max:.6g} coln={P.coln(spec.sai.epsilon)} "
            f"nonsingular={summary[-3]} ptime={P.build_time:.2f}s"
        )
    return 0


def _solve_rows(name: str, A: SparseMatrix, M, spec: ExperimentSpec, label: str):
    b = A.matvec(np.ones(A.ncols))
    rows = []
    for params in spec.solvers:
        x, rep = solve(A, b, M=M, params=params)
        dagger = not rep.converged
        method = params.method if params.method == "bicgstab" else f"gmres:{params.restart}"
        rows.append([
            name, method, params.side, label, rep.converged, dagger, rep.iters,
            rep.matvecs, rep.precond_applies, rep.final_rel_residual, rep.solve_time,
        ])
        mark = "†" if dagger else ""
        print(
            f"{name} {method}: converged={rep.converged}{mark} iters={rep.iters:g} "
            f"matvecs={rep.matvecs} rel_res={rep.final_rel_residual:.3e}"
        )
    return rows


def cmd_solve(spec: ExperimentSpec) -> int:
    _require_matrices(spec)
    all_rows = []
    for path in spec.matrices:
        name = Path(path).stem.replace(".mtx", "")
        A = load_matrix_market(path)
        if spec.no_precond:
            M, label = None, "none"
        elif spec.precond_path is not None:
            M, label = load_matrix_market(spec.precond_path), str(spec.precond_path)
        else:
            _, P = _build_one(path, spec.sai, spec.threads)
            M, label = P, _drop_label(spec.sai)
        all_rows.extend(_solve_rows(name, A, M, spec, label))
    _append_csv(spec.out / "solve.csv", SOLVE_HEADER, all_rows)
    return 0


def _sweep_cell(A, sai: SaiParams, spec: ExperimentSpec):
    P = build_preconditioner(A, sai, threads=spec.threads)
    b = A.matvec(np.ones(A.ncols))
    iters = {}
    daggers = {}
    for params in spec.solvers:
        _, rep = solve(A, b, M=P, params=params)
        key = "b" if params.method == "bicgstab" else "g"
        iters[key] = rep.iters
        daggers[key] = not rep.converged
    nonsingular, _ = check_nonsingular(P.M)
    tol_min, tol_max = P.tol_range()
    return P, iters, daggers, nonsingular, tol_min, tol_max


def cmd_sweep(spec: ExperimentSpec) -> int:
    _require_matrices(spec)
    base = dict(epsilon=spec.sai.epsilon, l_max=spec.sai.l_max, side=spec.sai.side)
    # scale 0 means no dropping; SaiParams rejects a negative scale
    cells = [("scale", s, SaiParams(**base, drop_mode="adaptive", drop_scale=s) if s != 0
              else SaiParams(**base, drop_mode="none")) for s in spec.scalings]
    cells += [("fixed", t, SaiParams(**base, drop_mode="fixed", tol=t)) for t in spec.fixed_tols]
    if not cells:
        raise SystemExit("empty sweep: give --scalings or --fixed-tols")
    rows = []
    for path in spec.matrices:
        name = Path(path).stem.replace(".mtx", "")
        A = load_matrix_market(path)
        for mode, value, sai in cells:
            P, iters, daggers, nonsingular, tol_min, tol_max = _sweep_cell(A, sai, spec)
            rows.append([
                name, mode, value, P.spar, P.build_time,
                iters.get("b"), iters.get("g"), daggers.get("b", False),
                daggers.get("g", False), P.r_max, P.r_max_post, tol_min,
                tol_max, nonsingular,
            ])
            print(
                f"{name} {mode}={value:g}: spar={P.spar:.2f} r_max={P.r_max:.6g} "
                f"r_max_post={P.r_max_post:.6g} iters_b={iters.get('b')} "
                f"iters_g={iters.get('g')} nonsingular={nonsingular}"
            )
    _write_csv(spec.out / "sweep.csv", SWEEP_HEADER, rows)
    return 0


def cmd_static(spec: ExperimentSpec) -> int:
    _require_matrices(spec)
    rows = []
    for path in spec.matrices:
        name = Path(path).stem.replace(".mtx", "")
        A = load_matrix_market(path)
        b = A.matvec(np.ones(A.ncols))
        for kind, power in spec.patterns:
            t0 = time.perf_counter()
            pattern = make_pattern(A, kind, power)
            t_pattern = time.perf_counter() - t0
            P = static_build(A, pattern, threads=spec.threads)
            F = postfilter(A, P, floor=spec.floor)
            for variant, prec, t_filter in (("M", P, 0.0), ("Md", F, F.build_time)):
                iters = {}
                times = {}
                for params in spec.solvers:
                    solver_params = SolveParams(
                        method=params.method, restart=params.restart,
                        rel_tol=params.rel_tol, max_iters=params.max_iters,
                        side="right",
                    )
                    _, rep = solve(A, b, M=prec, params=solver_params)
                    key = "b" if params.method == "bicgstab" else "g"
                    iters[key] = rep.iters if rep.converged else None
                    times[key] = rep.solve_time
                r_max = (
                    max(r.post_drop_residual for r in prec.records)
                    if variant == "Md"
                    else prec.r_max
                )
                rows.append([
                    name, f"{kind}:{power}", variant, t_pattern, P.build_time,
                    t_filter, t_pattern + P.build_time + t_filter,
                    prec.spar, iters.get("b"), iters.get("g"),
                    times.get("b"), times.get("g"), r_max,
                ])
                print(
                    f"{name} {kind}:{power} {variant}: spar={prec.spar:.2f} "
                    f"iters_b={iters.get('b')} iters_g={iters.get('g')} r_max={r_max:.4g}"
                )
    _write_csv(spec.out / "static.csv", STATIC_HEADER, rows)
    return 0


def cmd_report(out_dir: Path) -> int:
    out_dir = Path(out_dir)
    builds = sorted(out_dir.glob("*_build.csv"))
    solves = out_dir / "solve.csv"
    printed = False
    if builds:
        printed = True
        print(f"{'Matrix':<12}{'spar':>8}{'ptime':>9}{'r_max':>10}{'coln':>6}  nonsing")
        for path in builds:
            with open(path) as fh:
                for row in csv.DictReader(fh):
                    print(
                        f"{row['matrix']:<12}{float(row['spar']):>8.2f}"
                        f"{float(row['ptime']):>9.2f}{float(row['r_max']):>10.4f}"
                        f"{int(row['coln']):>6}  {row['nonsingular']}"
                    )
    if solves.exists():
        printed = True
        print(f"\n{'Matrix':<12}{'method':<10}{'precond':<14}{'iters':>8}{'matvecs':>9}  flag")
        with open(solves) as fh:
            for row in csv.DictReader(fh):
                mark = "†" if row["dagger"] == "1" else ""
                print(
                    f"{row['matrix']:<12}{row['method']:<10}{row['precond']:<14}"
                    f"{float(row['iters']):>8g}{int(row['matvecs']):>9}  {mark}"
                )
    static_csv = out_dir / "static.csv"
    if static_csv.exists():
        printed = True
        print(f"\n{'Matrix':<12}{'pattern':<12}{'var':<4}{'spar':>8}{'iter_b':>8}{'iter_g':>8}{'r_max':>10}")
        with open(static_csv) as fh:
            for row in csv.DictReader(fh):
                ib = row["iter_b"] or "†"
                ig = row["iter_g"] or "†"
                print(
                    f"{row['matrix']:<12}{row['pattern']:<12}{row['variant']:<4}"
                    f"{float(row['spar']):>8.2f}{ib:>8}{ig:>8}{float(row['r_max']):>10.4f}"
                )
    if not printed:
        print(f"no result CSVs under {out_dir}")
    return 0


def cmd_fetch(args) -> int:
    names = args.names or [e.name for e in datasets.CATALOG]
    dest = Path(args.dest)
    status = 0
    for name in names:
        entry = datasets.BY_NAME.get(name)
        if entry is None:
            print(f"{name}: not in catalog", file=sys.stderr)
            status = 1
            continue
        if not args.download:
            print(f"{entry.name:<10} n={entry.n:<6} nnz={entry.nnz:<7} {entry.description}")
            for url in entry.urls:
                print(f"    {url}")
            continue
        try:
            path = datasets.fetch_matrix(name, dest, download=True)
            print(f"{name}: ok -> {path}")
        except Exception as exc:  # noqa: BLE001 - best-effort bulk fetch
            print(f"{name}: FAILED ({exc})", file=sys.stderr)
            status = 1
    return status


def _add_common(p):
    p.add_argument("--spec", help="experiment spec file (key = value sections)")
    p.add_argument("--matrix", action="append", help="matrix file path (repeatable)")
    p.add_argument("--eps", type=float, default=None, help="accuracy target per column")
    p.add_argument("--lmax", type=int, default=None, help="max pattern-growth loops")
    p.add_argument("--drop", default=None, help="adaptive | none | fixed:<tol>")
    p.add_argument("--side", default=None, choices=["left", "right"])
    p.add_argument("--method", action="append", dest="methods",
                   help="bicgstab | gmres:<m> (repeatable)")
    p.add_argument("--rel-tol", type=float, default=None, dest="rel_tol")
    p.add_argument("--max-iters", type=int, default=None, dest="max_iters")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="saiprec",
        description="Sparse approximate inverse preconditioning benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a preconditioner, write M and reports")
    _add_common(p_build)

    p_solve = sub.add_parser("solve", help="solve with BiCGStab/GMRES, write solve.csv")
    _add_common(p_solve)
    p_solve.add_argument("--no-precond", action="store_true", dest="no_precond")
    p_solve.add_argument("--precond", help="use a previously written M (.mtx)")

    p_sweep = sub.add_parser("sweep", help="sweep drop-tolerance scalings or fixed tols")
    _add_common(p_sweep)
    p_sweep.add_argument("--scalings", help="comma list of adaptive-criterion scalings")
    p_sweep.add_argument("--fixed-tols", dest="fixed_tols", help="comma list of fixed tolerances")

    p_static = sub.add_parser("static", help="static-pattern build, postfilter, solve")
    _add_common(p_static)
    p_static.add_argument("--pattern", action="append",
                          help="iplusa:<k> | abs:<k> | normal:<k> (repeatable)")
    p_static.add_argument("--floor", type=float, default=None,
                          help="residual floor inside the postfilter tolerance")

    p_report = sub.add_parser("report", help="print summary tables from an output dir")
    p_report.add_argument("--out", default="out")

    p_fetch = sub.add_parser("fetch", help="list catalog matrices; --download fetches")
    p_fetch.add_argument("names", nargs="*", help="matrix names (default: all)")
    p_fetch.add_argument("--download", action="store_true")
    p_fetch.add_argument("--dest", default="data")

    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args.out)
    if args.command == "fetch":
        return cmd_fetch(args)
    spec = spec_from_args(args)
    if args.command == "build":
        return cmd_build(spec)
    if args.command == "solve":
        return cmd_solve(spec)
    if args.command == "sweep":
        return cmd_sweep(spec)
    if args.command == "static":
        return cmd_static(spec)
    raise SystemExit(f"unknown command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark command line: build preconditioners, solve systems, run the
drop-tolerance sweeps and the static-pattern studies, and print summary tables.

Every option is declared once, in :data:`OPTIONS`. An experiment takes the
table defaults, then a ``key = value`` spec file with bracketed sections, then
the flags; what the table does not accept stops the run before any matrix is
loaded. The right-hand side of every solve is b = A * ones. CSV floats carry
17 significant digits; booleans are written as 1/0.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import datasets
from .core import load_matrix_market, save_matrix_market
from .diagnostics import check_nonsingular
from .krylov import SolveParams, solve
from .psai import SaiParams, build_preconditioner
from .static import PATTERN_KINDS, make_pattern, postfilter, static_build


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def _write_csv(path: Path, header, rows, mode="w"):
    """Write ``rows`` under ``header``; mode "a" appends to an existing file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = mode == "w" or not path.exists()
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _parse_drop(text: str) -> dict:
    """SaiParams keywords for ``adaptive``, ``none`` or ``fixed:<tol>``."""
    if text in ("adaptive", "none"):
        return {"drop_mode": text}
    if not text.startswith("fixed:"):
        raise ValueError(f"drop must be adaptive, none or fixed:<tol>, got {text!r}")
    drop = {"drop_mode": "fixed", "tol": float(text[len("fixed:"):])}
    SaiParams(**drop)  # rejects tol <= 0
    return drop


def _method_args(text: str) -> dict:
    """SolveParams keywords for ``bicgstab``, ``gmres`` or ``gmres:<m>``."""
    if text in ("bicgstab", "gmres"):
        return {"method": text}
    if text.startswith("gmres:"):
        return {"method": "gmres", "restart": int(text[len("gmres:"):])}
    raise ValueError(f"method must be bicgstab, gmres or gmres:<m>, got {text!r}")


def _parse_method(text: str) -> str:
    """The method as written, once SolveParams accepts it."""
    text = text.strip()
    SolveParams(**_method_args(text))  # rejects a restart below 1
    return text


def _parse_pattern(text: str) -> tuple[str, int]:
    kind, _, power = text.strip().partition(":")
    if kind not in PATTERN_KINDS:
        raise ValueError(f"pattern must be <kind>[:<k>], kind in {PATTERN_KINDS}, got {text!r}")
    return kind, int(power) if power else 3


def _parse_threads(text: str) -> int:
    threads = int(text)
    if threads < 0:
        raise ValueError(f"threads must be 0 (all cores) or more, got {threads}")
    return threads


def _usage(parse):
    """argparse ``type=``: a value ``parse`` rejects becomes a usage error."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_RUNS = ("build", "solve", "sweep", "static")


@dataclass(frozen=True)
class Option:
    """One option, declared once for the flags, the spec file and the defaults.

    ``key`` is the spec-file ``[section] key`` (None: flag only). ``parse``
    turns one item of text into a value, raising ValueError on bad input.
    ``default`` is the text a user would type; None leaves the default of
    SaiParams, SolveParams or postfilter in force. ``kind`` is "one" value, a
    comma "list", a repeatable "append" flag (a comma list in a spec file) or
    a "switch" flag without a value."""

    name: str
    flag: str
    key: str | None
    parse: Callable[[str], Any] | None
    help: str
    default: str | None = None
    commands: tuple[str, ...] = _RUNS
    kind: str = "one"

    def parse_text(self, text: str):
        if self.kind == "one":
            return self.parse(text.strip())
        items = (t.strip() for t in text.replace("\n", ",").split(","))
        return [self.parse(t) for t in items if t]

    def add_to(self, parser: argparse.ArgumentParser):
        if self.kind == "switch":
            parser.add_argument(self.flag, dest=self.name, action="store_true",
                                default=None, help=self.help)
        else:
            parse = self.parse if self.kind == "append" else self.parse_text
            parser.add_argument(self.flag, dest=self.name, type=_usage(parse), help=self.help,
                                action="append" if self.kind == "append" else "store")


OPTIONS = (
    Option("spec", "--spec", None, Path, "experiment spec file (key = value sections)"),
    Option("matrices", "--matrix", "[matrices] paths", Path,
           "matrix file path (repeatable)", kind="append"),
    Option("eps", "--eps", "[sai] eps", float, "accuracy target per column"),
    Option("lmax", "--lmax", "[sai] lmax", int, "max pattern-growth loops"),
    Option("drop", "--drop", "[sai] drop", _parse_drop, "adaptive | none | fixed:<tol>"),
    Option("side", "--side", "[sai] side", lambda text: SaiParams(side=text).side, "right | left"),
    Option("methods", "--method", "[solve] methods", _parse_method,
           "bicgstab | gmres | gmres:<m> (repeatable)", "bicgstab, gmres", kind="append"),
    Option("rel_tol", "--rel-tol", "[solve] rel_tol", float, "relative residual target"),
    Option("max_iters", "--max-iters", "[solve] max_iters", int,
           "BiCGStab steps or GMRES restart cycles"),
    Option("no_precond", "--no-precond", None, None, "solve without a preconditioner",
           commands=("solve",), kind="switch"),
    Option("precond", "--precond", None, Path, "use a previously written M (.mtx)",
           commands=("solve",)),
    Option("scalings", "--scalings", "[sweep] scalings", float,
           "comma list of adaptive-criterion scalings", "1, 0.5, 0.1, 0.01, 0", ("sweep",), "list"),
    Option("fixed_tols", "--fixed-tols", "[sweep] fixed_tols", float,
           "comma list of fixed tolerances", "", ("sweep",), "list"),
    Option("patterns", "--pattern", "[static] patterns", _parse_pattern,
           "iplusa:<k> | abs:<k> | normal:<k> (repeatable)", "iplusa:3", ("static",), "append"),
    Option("floor", "--floor", "[static] floor", float,
           "residual floor inside the postfilter tolerance", commands=("static",)),
    Option("out", "--out", "[output] dir", Path, "output directory", "out", (*_RUNS, "report")),
    Option("threads", "--threads", "[output] threads", _parse_threads,
           "build worker processes; 0 means all cores", "0"),
)


@dataclass
class ExperimentSpec:
    matrices: list[Path]
    sai: SaiParams
    solvers: list[SolveParams]
    scalings: list[float]
    fixed_tols: list[float]
    patterns: list[tuple[str, int]]
    filter_args: dict  # postfilter keywords
    out: Path
    threads: int
    no_precond: bool
    precond_path: Path | None


def load_spec_file(path) -> dict:
    """Parse a spec file into option values keyed by option name. A section,
    key or value the table does not accept stops the run with a message that
    names the file and the ``[section] key``."""
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    by_key = {o.key: o for o in OPTIONS if o.key}
    if parser.defaults():
        raise SystemExit(f"{path}: unknown section [{parser.default_section}]")
    values: dict = {}
    for section in parser.sections():
        if not any(key.startswith(f"[{section}] ") for key in by_key):
            raise SystemExit(f"{path}: unknown section [{section}]")
        for name, text in parser.items(section):
            key = f"[{section}] {name}"
            option = by_key.get(key)
            if option is None:
                raise SystemExit(f"{path}: unknown key {key}")
            if option.kind != "one" and not text.strip():
                continue  # an empty list keeps the default
            try:
                values[option.name] = option.parse_text(text)
            except ValueError as exc:
                raise SystemExit(f"{path}: {key}: {exc}") from None
    return values


def spec_from_args(args) -> ExperimentSpec:
    """Resolve the options: table defaults, then the spec file, then flags."""
    values = {o.name: o.parse_text(o.default) for o in OPTIONS if o.default is not None}
    if getattr(args, "spec", None):
        values.update(load_spec_file(args.spec))
    values.update({name: v for name, v in vars(args).items() if v is not None})

    def given(**fields):
        """Keyword arguments, renamed, for the options that have a value."""
        return {kw: values[name] for name, kw in fields.items() if name in values}

    sai = SaiParams(**given(eps="epsilon", lmax="l_max", side="side"), **values.get("drop", {}))
    side = "none" if values.get("no_precond") else sai.side
    limits = given(rel_tol="rel_tol", max_iters="max_iters")
    return ExperimentSpec(
        matrices=values.get("matrices", []),
        sai=sai,
        solvers=[SolveParams(**_method_args(m), **limits, side=side) for m in values["methods"]],
        scalings=values["scalings"],
        fixed_tols=values["fixed_tols"],
        patterns=values["patterns"],
        filter_args=given(floor="floor"),
        out=values["out"],
        threads=values["threads"] or os.cpu_count() or 1,  # --threads 1 for timing-stable runs
        no_precond=bool(values.get("no_precond")),
        precond_path=values.get("precond"),
    )


def _matrices(spec: ExperimentSpec):
    """Yield ``(name, A)`` per matrix; every path is checked before the first load."""
    if not spec.matrices:
        raise SystemExit("no matrices given: use --matrix or a spec file")
    for path in spec.matrices:
        if not path.exists():
            raise SystemExit(f"matrix file not found: {path}")
    for path in spec.matrices:
        yield path.stem.replace(".mtx", ""), load_matrix_market(path)


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


def cmd_build(spec: ExperimentSpec) -> int:
    sai, label = spec.sai, _drop_label(spec.sai)
    for name, A in _matrices(spec):
        P = build_preconditioner(A, sai, threads=spec.threads)
        nonsingular, pivot_min = check_nonsingular(P.M)
        _write_csv(spec.out / f"{name}_build.csv", BUILD_HEADER, [[
            name, A.nrows, A.nnz, sai.epsilon, sai.l_max, label, sai.side,
            P.spar, P.r_max, P.r_max_post, P.coln(sai.epsilon), *P.tol_range(),
            nonsingular, pivot_min, P.build_time,
        ]])
        _write_csv(spec.out / f"{name}_columns.csv", COLUMNS_HEADER, [
            [r.k, r.pre_drop_residual, r.post_drop_residual, r.nnz_final, r.loops_used, label]
            for r in P.records
        ])
        save_matrix_market(spec.out / f"{name}_M.mtx", P.M, comment=f"SAI of {name}, {label}")
        print(
            f"{name}: n={A.nrows} nnz={A.nnz} spar={P.spar:.2f} "
            f"r_max={P.r_max:.6g} coln={P.coln(sai.epsilon)} "
            f"nonsingular={nonsingular} ptime={P.build_time:.2f}s"
        )
    return 0


def cmd_solve(spec: ExperimentSpec) -> int:
    rows = []
    for name, A in _matrices(spec):
        if spec.no_precond:
            M, label = None, "none"
        elif spec.precond_path is not None:
            M, label = load_matrix_market(spec.precond_path), str(spec.precond_path)
        else:
            M = build_preconditioner(A, spec.sai, threads=spec.threads)
            label = _drop_label(spec.sai)
        b = A.matvec(np.ones(A.ncols))
        for params in spec.solvers:
            _, rep = solve(A, b, M=M, params=params)
            dagger = not rep.converged
            method = params.method if params.method == "bicgstab" else f"gmres:{params.restart}"
            rows.append([
                name, method, params.side, label, rep.converged, dagger, rep.iters,
                rep.matvecs, rep.precond_applies, rep.final_rel_residual, rep.solve_time,
            ])
            print(
                f"{name} {method}: converged={rep.converged}{'†' if dagger else ''} "
                f"iters={rep.iters:g} matvecs={rep.matvecs} rel_res={rep.final_rel_residual:.3e}"
            )
    _write_csv(spec.out / "solve.csv", SOLVE_HEADER, rows, mode="a")
    return 0


def cmd_sweep(spec: ExperimentSpec) -> int:
    base = dict(epsilon=spec.sai.epsilon, l_max=spec.sai.l_max, side=spec.sai.side)
    # scale 0 means no dropping; SaiParams rejects a negative scale
    cells = [("scale", s, SaiParams(**base, drop_mode="adaptive", drop_scale=s) if s != 0
              else SaiParams(**base, drop_mode="none")) for s in spec.scalings]
    cells += [("fixed", t, SaiParams(**base, drop_mode="fixed", tol=t)) for t in spec.fixed_tols]
    if not cells:
        raise SystemExit("empty sweep: give --scalings or --fixed-tols")
    rows = []
    for name, A in _matrices(spec):
        b = A.matvec(np.ones(A.ncols))
        for mode, value, sai in cells:
            P = build_preconditioner(A, sai, threads=spec.threads)
            iters, daggers = {}, {}
            for params in spec.solvers:
                _, rep = solve(A, b, M=P, params=params)
                key = "b" if params.method == "bicgstab" else "g"
                iters[key], daggers[key] = rep.iters, not rep.converged
            nonsingular = check_nonsingular(P.M)[0]
            rows.append([
                name, mode, value, P.spar, P.build_time,
                iters.get("b"), iters.get("g"), daggers.get("b", False),
                daggers.get("g", False), P.r_max, P.r_max_post, *P.tol_range(), nonsingular,
            ])
            print(
                f"{name} {mode}={value:g}: spar={P.spar:.2f} r_max={P.r_max:.6g} "
                f"r_max_post={P.r_max_post:.6g} iters_b={iters.get('b')} "
                f"iters_g={iters.get('g')} nonsingular={nonsingular}"
            )
    _write_csv(spec.out / "sweep.csv", SWEEP_HEADER, rows)
    return 0


def cmd_static(spec: ExperimentSpec) -> int:
    # static builds are right-side: A M ~ I
    solvers = [dataclasses.replace(params, side="right") for params in spec.solvers]
    rows = []
    for name, A in _matrices(spec):
        b = A.matvec(np.ones(A.ncols))
        for kind, power in spec.patterns:
            t0 = time.perf_counter()
            pattern = make_pattern(A, kind, power)
            t_pattern = time.perf_counter() - t0
            P = static_build(A, pattern, threads=spec.threads)
            F = postfilter(A, P, **spec.filter_args)
            for variant, prec, t_filter in (("M", P, 0.0), ("Md", F, F.build_time)):
                iters, times = {}, {}
                for params in solvers:
                    _, rep = solve(A, b, M=prec, params=params)
                    key = "b" if params.method == "bicgstab" else "g"
                    iters[key] = rep.iters if rep.converged else None
                    times[key] = rep.solve_time
                r_max = prec.r_max_post if variant == "Md" else prec.r_max
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


_COMMANDS = {
    "build": (cmd_build, "build a preconditioner, write M and reports"),
    "solve": (cmd_solve, "solve with BiCGStab/GMRES, write solve.csv"),
    "sweep": (cmd_sweep, "sweep drop-tolerance scalings or fixed tols"),
    "static": (cmd_static, "static-pattern build, postfilter, solve"),
    "report": (None, "print summary tables from an output dir"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="saiprec",
        description="Sparse approximate inverse preconditioning benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for option in OPTIONS:
            if command in option.commands:
                option.add_to(p)

    p_fetch = sub.add_parser("fetch", help="list catalog matrices; --download fetches")
    p_fetch.add_argument("names", nargs="*", help="matrix names (default: all)")
    p_fetch.add_argument("--download", action="store_true")
    p_fetch.add_argument("--dest", default="data")

    args = parser.parse_args(argv)
    if args.command == "fetch":
        return cmd_fetch(args)
    spec = spec_from_args(args)
    if args.command == "report":
        return cmd_report(spec.out)
    return _COMMANDS[args.command][0](spec)


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark command line: build preconditioners, solve systems, run the
drop-tolerance sweeps and the static-pattern studies, and print summary tables.

Every option is declared once, in :data:`OPTIONS`. An experiment takes the
table defaults, then a ``key = value`` spec file with bracketed sections, then
the flags; what the table does not accept, and a matrix or ``--precond`` path
that does not exist, stops the run before any matrix is loaded. The solve,
sweep and static commands share one solve step, :func:`_solve_all`, whose
right-hand side is b = A * ones; ``report`` prints every result table through
one loop over :data:`_TABLES`. CSV floats carry 17 significant digits;
booleans are written as 1/0.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import os
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import datasets
from .core import load_matrix_market, save_matrix_market
from .diagnostics import check_nonsingular
from .krylov import SolveParams, solve
from .psai import SaiParams, build_preconditioner
from .static import PATTERN_KINDS, _checked_floor, make_pattern, postfilter, static_build


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


def _check_header(path: Path, header):
    """Stop unless ``path`` is absent or starts with ``header``, so that rows
    appended to it line up with its columns."""
    if not path.exists():
        return
    with open(path, newline="") as fh:
        found = next(csv.reader(fh), [])
    if found != list(header):
        raise SystemExit(f"{path}: header has columns {','.join(found)}, expected "
                         f"{','.join(header)}; move the file or choose another --out")


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
    power = int(power) if power else 3
    if power < 1:
        raise ValueError(f"pattern power must be at least 1, got {text!r}")
    return kind, power


def _parse_threads(text: str) -> int:
    threads = int(text)
    if threads < 0:
        raise ValueError(f"threads must be 0 (all cores) or more, got {threads}")
    return threads


def _checked(params, field: str, convert):
    """Item parser: ``convert`` the text, then let ``params`` (SaiParams or
    SolveParams) check the value as ``field``."""
    def parse(text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # warned once, when the run builds its params
            return getattr(params(**{field: convert(text)}), field)
    return parse


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
    Option("eps", "--eps", "[sai] eps", _checked(SaiParams, "epsilon", float),
           "accuracy target per column"),
    Option("lmax", "--lmax", "[sai] lmax", _checked(SaiParams, "l_max", int),
           "max pattern-growth loops"),
    Option("drop", "--drop", "[sai] drop", _parse_drop, "adaptive | none | fixed:<tol>"),
    Option("side", "--side", "[sai] side", _checked(SaiParams, "side", str), "right | left"),
    Option("methods", "--method", "[solve] methods", _parse_method,
           "bicgstab | gmres | gmres:<m> (repeatable)", "bicgstab, gmres", kind="append"),
    Option("rel_tol", "--rel-tol", "[solve] rel_tol", _checked(SolveParams, "rel_tol", float),
           "relative residual target"),
    Option("max_iters", "--max-iters", "[solve] max_iters", _checked(SolveParams, "max_iters", int),
           "BiCGStab steps or GMRES restart cycles"),
    Option("no_precond", "--no-precond", None, None, "solve without a preconditioner",
           commands=("solve",), kind="switch"),
    Option("precond", "--precond", None, Path, "use a previously written M (.mtx)",
           commands=("solve",)),
    Option("scalings", "--scalings", "[sweep] scalings", _checked(SaiParams, "drop_scale", float),
           "comma list of adaptive-criterion scalings", "1, 0.5, 0.1, 0.01, 0", ("sweep",), "list"),
    Option("fixed_tols", "--fixed-tols", "[sweep] fixed_tols",
           lambda text: _parse_drop(f"fixed:{text}")["tol"],
           "comma list of fixed tolerances", "", ("sweep",), "list"),
    Option("patterns", "--pattern", "[static] patterns", _parse_pattern,
           "iplusa:<k> | abs:<k> | normal:<k> (repeatable)", "iplusa:3", ("static",), "append"),
    Option("floor", "--floor", "[static] floor", lambda text: _checked_floor(float(text)),
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
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:  # missing, unreadable or malformed
        raise SystemExit(f"{path}: {exc}") from None
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
    """``(name, A)`` per matrix, loaded as it is iterated; every path, a
    ``--precond`` path too, is checked first, before anything is loaded.
    Outputs are named by ``name``, so two files may not share one."""
    if not spec.matrices:
        raise SystemExit("no matrices given: use --matrix or a spec file")
    for path in [*spec.matrices, *filter(None, [spec.precond_path])]:
        if not path.exists():
            raise SystemExit(f"matrix file not found: {path}")
    names = [path.stem.replace(".mtx", "") for path in spec.matrices]
    first = {}
    for name, path in zip(names, spec.matrices):
        if first.setdefault(name, path).resolve() != path.resolve():
            raise SystemExit(f"matrix files {first[name]} and {path} share the output "
                             f"name {name!r}; rename one")
    return ((name, load_matrix_market(path)) for name, path in zip(names, spec.matrices))


def _nonempty(spec: ExperimentSpec):
    """:func:`_matrices` for the runs that report M's density nnz(M) / nnz(A):
    a matrix with no entries stops the run before it is built."""
    for path, (name, A) in zip(spec.matrices, _matrices(spec)):
        if A.nnz == 0:
            raise SystemExit(f"{path}: the matrix has no entries, so there is nothing to build")
        yield name, A


def _drop_label(params: SaiParams) -> str:
    """The ``--drop`` text of ``params`` (build and solve leave drop_scale at 1)."""
    return f"fixed:{params.tol:g}" if params.drop_mode == "fixed" else params.drop_mode


BUILD_HEADER = [
    "matrix", "n", "nnz", "eps", "lmax", "drop", "side", "spar", "r_max",
    "r_max_post", "coln", "mintol", "maxtol", "nonsingular", "rcond", "ptime",
]
COLUMNS_HEADER = ["k", "pre_drop", "post_drop", "nnz", "loops", "drop"]
COLUMN_FIELDS = ("k", "pre_drop_residual", "post_drop_residual", "nnz_final", "loops_used")
SOLVE_HEADER = [
    "matrix", "method", "side", "precond", "converged", "dagger", "iters",
    "matvecs", "precond_applies", "rel_residual", "stime", "reason",
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


def _method_label(params: SolveParams) -> str:
    return params.method if params.method == "bicgstab" else f"gmres:{params.restart}"


def _one_method_per_family(command: str, solvers):
    """Stop unless ``solvers`` hold at most one method of each family, since
    the sweep and static tables have one iter_b and one iter_g column."""
    for family in ("bicgstab", "gmres"):
        given = [_method_label(params) for params in solvers if params.method == family]
        if len(given) > 1:
            raise SystemExit(f"{command} takes one {family} method, got {', '.join(given)}: "
                             "its table has one iter_b and one iter_g column")


def _solve_all(A, M, solvers):
    """The solve step of every run: ``(params, report)`` per solver for
    A x = b with b = A * ones."""
    b = A.matvec(np.ones(A.ncols))
    return [(params, solve(A, b, M=M, params=params)[1]) for params in solvers]


def _by_family(A, M, solvers):
    """The (bicgstab, gmres) reports of :func:`_solve_all`; None: it did not run."""
    reports = {params.method: rep for params, rep in _solve_all(A, M, solvers)}
    return reports.get("bicgstab"), reports.get("gmres")


def cmd_build(spec: ExperimentSpec) -> int:
    sai, label = spec.sai, _drop_label(spec.sai)
    for name, A in _nonempty(spec):
        P = build_preconditioner(A, sai, threads=spec.threads)
        nonsingular, rcond = check_nonsingular(P.M)
        _write_csv(spec.out / f"{name}_build.csv", BUILD_HEADER, [[
            name, A.nrows, A.nnz, sai.epsilon, sai.l_max, label, sai.side,
            P.spar, P.r_max, P.r_max_post, P.coln(sai.epsilon), *P.tol_range(),
            nonsingular, rcond, P.build_time,
        ]])
        _write_csv(spec.out / f"{name}_columns.csv", COLUMNS_HEADER, [
            [*row, label] for row in P.records[list(COLUMN_FIELDS)].tolist()])
        save_matrix_market(spec.out / f"{name}_M.mtx", P.M, comment=f"SAI of {name}, {label}")
        print(
            f"{name}: n={A.nrows} nnz={A.nnz} spar={P.spar:.2f} "
            f"r_max={P.r_max:.6g} coln={P.coln(sai.epsilon)} "
            f"nonsingular={nonsingular} ptime={P.build_time:.2f}s"
        )
    return 0


def cmd_solve(spec: ExperimentSpec) -> int:
    _check_header(spec.out / "solve.csv", SOLVE_HEADER)
    matrices = _matrices(spec)
    saved = None if spec.no_precond else spec.precond_path
    M = load_matrix_market(saved) if saved else None  # loaded once, for every matrix
    label = "none" if spec.no_precond else str(saved or _drop_label(spec.sai))
    rows = []
    for path, (name, A) in zip(spec.matrices, matrices):
        if saved and M.shape != A.shape:
            raise SystemExit(f"{saved}: the preconditioner is {M.nrows}x{M.ncols}, but "
                             f"{path} is {A.nrows}x{A.ncols}")
        if not (spec.no_precond or saved):
            M = build_preconditioner(A, spec.sai, threads=spec.threads)
        for params, rep in _solve_all(A, M, spec.solvers):
            dagger = not rep.converged
            method = _method_label(params)
            rows.append([
                name, method, params.side, label, rep.converged, dagger, rep.iters,
                rep.matvecs, rep.precond_applies, rep.final_rel_residual, rep.solve_time,
                rep.reason,
            ])
            print(
                f"{name} {method}: converged={rep.converged}{'†' if dagger else ''} "
                f"iters={rep.iters:g} matvecs={rep.matvecs} rel_res={rep.final_rel_residual:.3e} "
                f"reason={rep.reason}"
            )
    _write_csv(spec.out / "solve.csv", SOLVE_HEADER, rows, mode="a")
    return 0


def cmd_sweep(spec: ExperimentSpec) -> int:
    _one_method_per_family("sweep", spec.solvers)
    base = dict(epsilon=spec.sai.epsilon, l_max=spec.sai.l_max, side=spec.sai.side)
    cells = [("scale", s, SaiParams(**base, drop_scale=s)) for s in spec.scalings]
    cells += [("fixed", t, SaiParams(**base, drop_mode="fixed", tol=t)) for t in spec.fixed_tols]
    if not cells:
        raise SystemExit("empty sweep: give --scalings or --fixed-tols")
    rows = []
    for name, A in _nonempty(spec):
        for mode, value, sai in cells:
            P = build_preconditioner(A, sai, threads=spec.threads)
            reports = _by_family(A, P, spec.solvers)
            iters = [rep and rep.iters for rep in reports]
            daggers = [rep is not None and not rep.converged for rep in reports]
            nonsingular = check_nonsingular(P.M)[0]
            rows.append([
                name, mode, value, P.spar, P.build_time, *iters, *daggers,
                P.r_max, P.r_max_post, *P.tol_range(), nonsingular,
            ])
            print(
                f"{name} {mode}={value:g}: spar={P.spar:.2f} r_max={P.r_max:.6g} "
                f"r_max_post={P.r_max_post:.6g} iters_b={iters[0]} "
                f"iters_g={iters[1]} nonsingular={nonsingular}"
            )
    _write_csv(spec.out / "sweep.csv", SWEEP_HEADER, rows)
    return 0


def cmd_static(spec: ExperimentSpec) -> int:
    _one_method_per_family("static", spec.solvers)
    # static builds are right-side: A M ~ I
    solvers = [dataclasses.replace(params, side="right") for params in spec.solvers]
    rows = []
    for name, A in _nonempty(spec):
        for kind, power in spec.patterns:
            t0 = time.perf_counter()
            pattern = make_pattern(A, kind, power)
            t_pattern = time.perf_counter() - t0
            P = static_build(A, pattern, threads=spec.threads)
            F = postfilter(A, P, **spec.filter_args)
            for variant, prec, t_filter in (("M", P, 0.0), ("Md", F, F.build_time)):
                reports = _by_family(A, prec, solvers)
                iters = [rep.iters if rep and rep.converged else None for rep in reports]
                r_max = prec.r_max_post if variant == "Md" else prec.r_max
                rows.append([
                    name, f"{kind}:{power}", variant, t_pattern, P.build_time,
                    t_filter, t_pattern + P.build_time + t_filter, prec.spar, *iters,
                    *(rep and rep.solve_time for rep in reports), r_max,
                ])
                print(
                    f"{name} {kind}:{power} {variant}: spar={prec.spar:.2f} "
                    f"iters_b={iters[0]} iters_g={iters[1]} r_max={r_max:.4g}"
                )
    _write_csv(spec.out / "static.csv", STATIC_HEADER, rows)
    return 0


def _cells(row: dict) -> dict:
    """A result row for the row formats: floats parsed, the solve ``flag``, and
    the sweep and static ``count_b``/``count_g``: "-" when the method did not
    run, "†" on a miss (a static row leaves a missed count empty)."""
    cells = {k: float(v) if k in ("spar", "ptime", "r_max", "iters", "value") else v
             for k, v in row.items()}
    cells["flag"] = "†" * (row.get("dagger") == "1")
    for m in "bg":
        count = row.get(f"iter_{m}")
        ran = row.get(f"stime_{m}", count)  # a static row times every method that ran
        missed = row.get(f"dagger_{m}") == "1" or not count
        cells[f"count_{m}"] = count + "†" * missed if ran else "-"
    return cells


# (CSV glob, header, row format over _cells) per table, in the order report prints them
_TABLES = (
    ("*_build.csv", f"{'Matrix':<12}{'spar':>8}{'ptime':>9}{'r_max':>10}{'coln':>6}  nonsing",
     "{matrix:<12}{spar:>8.2f}{ptime:>9.2f}{r_max:>10.4f}{coln:>6}  {nonsingular}"),
    ("solve.csv", f"{'Matrix':<12}{'method':<10}{'precond':<14}{'iters':>8}{'matvecs':>9}  flag",
     "{matrix:<12}{method:<10}{precond:<14}{iters:>8g}{matvecs:>9}  {flag}"),
    ("sweep.csv",
     f"{'Matrix':<12}{'mode':<7}{'value':>9}{'spar':>8}{'iter_b':>8}{'iter_g':>8}{'r_max':>10}",
     "{matrix:<12}{mode:<7}{value:>9g}{spar:>8.2f}{count_b:>8}{count_g:>8}{r_max:>10.4f}"),
    ("static.csv",
     f"{'Matrix':<12}{'pattern':<12}{'var':<4}{'spar':>8}{'iter_b':>8}{'iter_g':>8}{'r_max':>10}",
     "{matrix:<12}{pattern:<12}{variant:<4}{spar:>8.2f}{count_b:>8}{count_g:>8}{r_max:>10.4f}"),
)


def cmd_report(spec: ExperimentSpec) -> int:
    printed = False
    for pattern, header, line in _TABLES:
        paths = sorted(spec.out.glob(pattern))
        if paths:
            print("\n" * printed + header)
            printed = True
        for path in paths:
            with open(path) as fh:
                for row in csv.DictReader(fh):
                    print(line.format(**_cells(row)))
    if not printed:
        print(f"no result CSVs under {spec.out}")
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
    "report": (cmd_report, "print summary tables from an output dir"),
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
    return _COMMANDS[args.command][0](spec_from_args(args))


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Alternated before/after runs of the benchmark from two source trees.

Each pair runs ``python3 perfbench/run.py <args>`` once with the working
directory at the parent tree and once at the change tree; the parent runs
first in even pairs (0, 2, ...) and second in odd ones, so drift on a shared
host falls on both sides alike. The last line each run prints is its result
line; every run's line is kept, and for every metric in it the output gives
each side's values, median and quartiles (numpy's linear percentiles 25 and
75), the pairs each side won (ties count for neither; "won" follows the
metric's ``better`` in BENCHMARK.json) and whether the claim rule holds: the
change wins at least nine tenths of the pairs and its median is better than
the parent's by more than the parent's interquartile range. Each end-to-end
metric also gets a ``verdict`` against its ``bound`` in BENCHMARK.json (a
share of the parent's median): ``unresolved`` when the parent's interquartile
range exceeds the bound, unless every change run beats every parent run;
otherwise ``worse`` when the change's median is worse than the parent's by
more than the bound, and ``within_bound`` when it is not; the verdicts are
printed after the last pair. A metric with a
value on one side of a pair and none on the other is listed under
``missing`` by the side that lacks it, and printed after the pair. From the
repository root:

    python3 tools/bench_pairs.py <parent-tree> <change-tree> --label leanls \\
        --set seed0 --pairs 10 -- --workload all --seed 0 --seconds 55 --trace 0

writes or updates ``BENCH_leanls.json`` in the current directory: the set
named by ``--set`` is replaced and other sets are kept, so one file can hold
several seeds and a traced pass (``--pairs 1 -- ... --trace 1``). The file is
rewritten after every pair, so an interrupted series keeps the pairs it ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

WIN_TENTHS = 9  # the change must win at least this many tenths of the pairs


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     usage="%(prog)s parent change --label L --set S "
                                           "[--pairs N] -- <perfbench/run.py arguments>")
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--set", dest="name", required=True, help="name of this series in the file")
    parser.add_argument("--pairs", type=int, default=10)
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        parser.error("give the arguments for perfbench/run.py after --")
    cut = argv.index("--")
    args = parser.parse_args(argv[:cut])
    args.run_args = argv[cut + 1:]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    return args


def run_once(tree: Path, run_args) -> dict:
    """One benchmark run from ``tree``: its result line, exit code and wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", *run_args], cwd=tree,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"result": result, "exit_code": proc.returncode,
            "wall_s": time.perf_counter() - start}


def better_direction(spec: dict) -> dict:
    """Result-line metric name -> "lower" or "higher", from BENCHMARK.json;
    ``--workload all`` prefixes each name with its workload."""
    better = {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    prefixed = {f"{w['name']}.{name}": way for w in spec["workloads"] for name, way in better.items()}
    return {**better, **prefixed}


def end_to_end_bounds(spec: dict) -> dict:
    """Result-line end-to-end metric name -> its ``bound`` in BENCHMARK.json,
    with and without each workload's prefix."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    prefixed = {f"{w['name']}.{name}": bound for w in spec["workloads"]
                for name, bound in bounds.items()}
    return {**bounds, **prefixed}


def verdict(before: np.ndarray, after: np.ndarray, sign: float, bound: float) -> str:
    """``within_bound``, ``worse`` or ``unresolved`` for the change's runs
    ``after`` against the parent's ``before``; ``sign`` is 1 when lower is
    better and -1 when higher is, and ``bound`` is a share of the parent's
    median."""
    if np.max(sign * after) < np.min(sign * before):  # every change run beats every parent run
        return "within_bound"
    median_before = float(np.median(before))
    q1, q3 = np.percentile(before, [25, 75])
    allowed = bound * abs(median_before)
    if q3 - q1 > allowed:
        return "unresolved"
    return "worse" if sign * (float(np.median(after)) - median_before) > allowed else "within_bound"


def value(run: dict, name: str):
    """The value of metric ``name`` in a run's result line, or None."""
    return (run["result"]["metrics"].get(name) or {}).get("value")


def summarize(runs, better: dict, bounds: dict | None = None) -> dict:
    """Per metric of the result lines: both sides' values and statistics, and
    for a metric with an entry in ``bounds`` its :func:`verdict`. A metric
    that BENCHMARK.json does not name counts as lower-is-better."""
    ok = [r for r in runs if r["parent"]["result"] and r["change"]["result"]]
    names = sorted(set().union(*(r["parent"]["result"]["metrics"] for r in ok))) if ok else []
    summary = {}
    for name in names:
        pairs = [(value(r["parent"], name), value(r["change"], name)) for r in ok]
        pairs = [(b, a) for b, a in pairs if b is not None and a is not None]
        if not pairs:
            continue
        before = np.array([b for b, _ in pairs], dtype=float)
        after = np.array([a for _, a in pairs], dtype=float)
        sign = -1.0 if better.get(name) == "higher" else 1.0
        q_before, q_after = np.percentile(before, [25, 75]), np.percentile(after, [25, 75])
        median_before, median_after = float(np.median(before)), float(np.median(after))
        iqr = float(q_before[1] - q_before[0])
        gain = sign * (median_before - median_after)  # positive when the change is better
        wins = int(np.sum(sign * (before - after) > 0))
        summary[name] = {
            "before": before.tolist(), "after": after.tolist(),
            "median_before": median_before, "median_after": median_after,
            "quartiles_before": q_before.tolist(), "quartiles_after": q_after.tolist(),
            "iqr_before": iqr, "change_wins": wins,
            "parent_wins": int(np.sum(sign * (after - before) > 0)),
            "relative_change": (median_after - median_before) / median_before if median_before else None,
            "gain_exceeds_parent_iqr": bool(gain > iqr),
            "claim_holds": bool(10 * wins >= WIN_TENTHS * len(pairs) and gain > iqr),
        }
        if bounds and name in bounds:
            summary[name]["verdict"] = verdict(before, after, sign, bounds[name])
    return summary


def missing(runs) -> dict:
    """Per side, the metrics that have a value on the other side of some
    pair and none on this one; :func:`summarize` skips such pairs, so a
    metric that vanishes from one side's result line is named here."""
    ok = [r for r in runs if r["parent"]["result"] and r["change"]["result"]]
    out = {"parent": set(), "change": set()}
    for r in ok:
        present = {side: {name for name in r[side]["result"]["metrics"]
                          if value(r[side], name) is not None}
                   for side in out}
        out["parent"] |= present["change"] - present["parent"]
        out["change"] |= present["parent"] - present["change"]
    return {side: sorted(names) for side, names in out.items()}


def operations(runs) -> dict:
    """Operations attempted and failed over all runs of each side; a run
    without a result line counts as one failed operation."""
    totals = {}
    for side in ("parent", "change"):
        results = [r[side]["result"] or {"attempted": 1, "failed": 1} for r in runs]
        totals[side] = {"attempted": sum(x["attempted"] for x in results),
                        "failed": sum(x["failed"] for x in results),
                        "runs_not_correct": sum(not x.get("correct") for x in results)}
    return totals


def host() -> dict:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg_at_start": os.getloadavg()}


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    out = Path(f"BENCH_{args.label}.json")
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("sets", {})
    entry = {"command": ["python3", "perfbench/run.py", *args.run_args],
             "host": host(), "runs": [], "operations": {}, "missing": {}, "summary": {}}
    record["sets"][args.name] = entry
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"pair": i, "first": order[0]}
        for side in order:
            run[side] = run_once(args.parent if side == "parent" else args.change, args.run_args)
        entry["runs"].append(run)
        entry["operations"] = operations(entry["runs"])
        entry["missing"] = missing(entry["runs"])
        entry["summary"] = summarize(entry["runs"], better_direction(spec), end_to_end_bounds(spec))
        entry["host"]["loadavg_at_end"] = os.getloadavg()
        out.write_text(json.dumps(record, indent=1) + "\n")
        failed = [s for s in order if run[s]["result"] is None or run[s]["exit_code"]]
        absent = [f"{side} lacks {', '.join(names)}" for side, names in entry["missing"].items() if names]
        print(f"pair {i}: parent {run['parent']['wall_s']:.0f} s, change "
              f"{run['change']['wall_s']:.0f} s" + (f"; failed: {failed}" if failed else "")
              + "".join(f"; {line}" for line in absent), flush=True)
    for name, stats in entry["summary"].items():
        if "verdict" in stats:
            print(f"{name}: {stats['verdict']} (median {stats['median_before']:.4g} -> "
                  f"{stats['median_after']:.4g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""saiprec benchmark: one workload per invocation, or all of them.

Run from the repository root:

    python3 perfbench/run.py --workload adaptive-reservoir --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

The benchmark generates its own synthetic matrices from ``--seed``, writes A
as Matrix Market under ``.perfbench/`` and drives ``src/saiprec`` from there.
``--trace 0`` repeats the whole pipeline while one more pass still fits in
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every correctness check held.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            one = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        result["correct"] = result["correct"] and one["correct"] and proc.returncode == 0
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for key, value in one["metrics"].items():
            result["metrics"][f"{name}.{key}"] = value
        print()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_one(args, root: Path, w) -> int:
    import measure

    out_dir = root / ".perfbench" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = measure.provenance(root, w, args.seed)
    run = measure.Run()
    print(f"saiprec benchmark: workload={w.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {w.why}")
    print(f"inputs: {prov['inputs']}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items() if k != "inputs"))

    record = {"workload": w.name, "why": w.why, "provenance": prov}
    metrics = {}
    if args.trace:
        got = measure.run_traced(w, args.seed, out_dir, run, run_id=out_dir.name)
        values, absent = got if got is not None else ({}, [])
        not_run = []
        print(f"\n{'per-layer metric':<30}{'unit':<10}{'value':>14}")
        for name, unit in {**measure.LAYER_UNITS, **measure.LAYER_EXTRA}.items():
            value = values.get(name)
            if name in absent:
                shown = "absent"
            elif value is None:
                shown = "not run"
                not_run.append(name)
            else:
                shown = f"{value:.6g}"
                if name in measure.LAYER_UNITS:
                    metrics[name] = {"value": value, "unit": unit}
            note = "  (computed: 2*nnz(M)*applies / apply_m_s)" if name.endswith("gflops") else ""
            if name in measure.LAYER_EXTRA and shown != "not run":
                note += "  (not in the result line)"
            print(f"{name:<30}{unit:<10}{shown:>14}{note}")
        print("(the traced pass uses 1 worker; parallel.map_s and parallel.speedup "
              "time map_columns alone)")
        record.update(layers=values, absent=absent, not_run=not_run)
    else:
        samples, exact = measure.run_untraced(w, args.seed, args.seconds, out_dir, run)
        print(f"\n{'metric':<16}{'unit':<9}{'median':>12}{'upper':>12}{'':<6}{'n':>4}")
        for name, unit in measure.END_TO_END.items():
            if name in samples:
                med, upper, label, n = measure.distribution(samples[name])
                print(f"{name:<16}{unit:<9}{med:>12.6g}{upper:>12.6g} {label:<5}{n:>4}")
                metrics[name] = {"value": med, "unit": unit}
            elif name in exact:
                print(f"{name:<16}{unit:<9}{_fmt(exact[name]):>12}")
                metrics[name] = {"value": exact[name], "unit": unit}
        for name, unit in measure.PRINTED_ONLY.items():
            if name in exact:
                print(f"{name:<16}{unit:<9}{_fmt(exact[name]):>12}  (not in the result line)")
        if samples.get("per_solve_s"):
            med, upper, label, n = measure.distribution(samples["per_solve_s"])
            print(f"{'one solve':<16}{'s':<9}{med:>12.6g}{upper:>12.6g} {label:<5}{n:>4}")
        record["samples"] = samples
        record["exact"] = exact

    print(f"\nchecks: {run.attempted} operations attempted, {run.failed} failed")
    for problem in run.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    correct = run.failed == 0 and run.attempted > 0 and bool(metrics)
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed if run.attempted else 1, "metrics": metrics}
    record.update(result, problems=run.problems)
    with open(out_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "saiprec" / "__init__.py").is_file():
        print(f"no saiprec sources under {src}: run from the repository root", file=sys.stderr)
        return 2
    # pin BLAS/OpenMP pools before numpy loads, so a workload's thread count
    # is exactly the worker count it states
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import saiprec

    if Path(saiprec.__file__).resolve().parent != (src / "saiprec").resolve():
        print(f"imported saiprec from {saiprec.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args, root, workloads.WORKLOADS[args.workload])


if __name__ == "__main__":
    raise SystemExit(main())

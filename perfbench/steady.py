"""Steadiness check: rerun each workload and report the spread of every metric.

    python3 perfbench/steady.py --runs 10 [--workload crowd ...] [--first-seed 1]

Runs ``run.py`` once per seed, one run at a time, with the run length
from ``BENCHMARK.json``.  For each end-to-end metric it prints the median
and quartiles of the runs (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median next to the metric's bound.
A bound is met when the spread stays within it (``setup_s`` is judged
on its median only); a steady benchmark keeps each spread under a third
of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("printed_only "):
            result["printed_only"] = json.loads(line.split(" ", 1)[1])
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable); default all")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            values = " ".join(f"{name}={m['value']:.6g}"
                              for name, m in results[-1]["metrics"].items())
            print(f"{workload} seed={seed}: attempted={results[-1]['attempted']} "
                  f"failed={results[-1]['failed']} {values}", file=sys.stderr, flush=True)
        failed = [r["failed"] / r["attempted"] for r in results]
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each; "
              f"all correct={all(r['correct'] for r in results)}; "
              f"failed share min={min(failed):.6g} max={max(failed):.6g}")
        print(f"  {'metric':24s} {'unit':>9s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        rows = [(name, results[0]["metrics"][name]["unit"],
                 [r["metrics"][name]["value"] for r in results], bound)
                for name, bound in bounds.items()]
        rows += [(name, metric["unit"],
                  [r["printed_only"][name]["value"] for r in results], None)
                 for name, metric in results[0]["printed_only"].items()
                 if all(name in r["printed_only"] for r in results)]
        for name, unit, values, bound in rows:
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  above a third of the bound"
                steady = False
            print(f"  {name:24s} {unit:>9s} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

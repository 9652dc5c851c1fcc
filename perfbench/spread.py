#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workloads surfaces optimized verify --runs 10
    python3 perfbench/spread.py --workloads surfaces --runs 2 --trace 1

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  Seeds are first_seed, first_seed + 1, ...; each run is a
fresh ``run.py`` process.  The raw results go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    (HERE / "out").mkdir(exist_ok=True)
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            result["seed"], result["wall_s"] = seed, time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed {seed}: {result['attempted']} jobs, "
                  f"{result['failed']} failed, {result['wall_s']:.1f} s", flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else 0.0,
                          "values": values}
        report[workload] = {"runs": runs, "metrics": rows}
        print(f"\n{workload}: {len(runs)} runs, "
              f"failed share {[r['failed'] / r['attempted'] for r in runs]}")
        print(f"  {'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
        for name, row in rows.items():
            print(f"  {name:<42} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['spread']:>8.4f} {bounds.get(name)}")
        print(flush=True)
    out = HERE / "out" / f"spread-trace{args.trace}-seed{args.first_seed}-{int(time.time())}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"raw results: {out.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

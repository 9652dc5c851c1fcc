#!/usr/bin/env python3
"""Benchmark of the isingcontrol command line, end to end and layer by layer.

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; the package is taken from ``src``.
With ``--trace 0`` one client spawns CLI jobs one at a time (closed loop)
in whole rounds until ``--seconds`` have passed, then checks every output
and prints the end-to-end metrics.  With ``--trace 1`` the same jobs run in
this process through ``cli.main(argv)``, alternating untraced and traced
rounds, and the per-layer metrics are printed.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
``--workload all`` runs every workload and prints one table.
"""
from __future__ import annotations

import os

# Job processes get the caller's environment unchanged.  This process uses
# one BLAS thread, which keeps its checks and its in-process (traced) rounds
# on one core.
BASE_ENV = dict(os.environ)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import jobs  # noqa: E402
import tracing  # noqa: E402

SETUP_STARTS = 9
IMPORT_STARTS = 5
MIN_ROUNDS = 2
MAX_PROBLEMS_SHOWN = 5
END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "cells_per_s": "cells/s",
                    "peak_rss_mb": "MB"}
COLD_START = "from isingcontrol.cli import build_parser; build_parser()"
IMPORT_TIME = ("import time; t = time.perf_counter(); import isingcontrol.cli; "
               "print(time.perf_counter() - t)")


class ProgramMissing(Exception):
    """The program under test could not be started."""


def _python(code: str, env: dict) -> tuple[float, str]:
    """Wall time of a fresh interpreter running ``code``, and its stdout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=jobs.ROOT,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise ProgramMissing(proc.stderr.strip().splitlines()[-1:] or proc.returncode)
    return wall, proc.stdout


def setup_seconds(env: dict) -> float:
    """Median cold start: fresh interpreter until the CLI parser is built."""
    return statistics.median(_python(COLD_START, env)[0] for _ in range(SETUP_STARTS))


def import_seconds(env: dict) -> float:
    """Median time to import the CLI module in a fresh interpreter."""
    return statistics.median(float(_python(IMPORT_TIME, env)[1])
                             for _ in range(IMPORT_STARTS))


def count_failures(results, seed: int) -> tuple[int, list[str]]:
    """Failed jobs among ``results`` [(job, returncode, output)].

    The first successful output of each job gets every check; later runs of
    the job must reproduce it byte for byte.
    """
    reference, verdict, failed, problems = {}, {}, 0, []
    for job, code, output in results:
        if code != 0:
            failed += 1
            problems.append(f"{job.name}: exit code {code}")
            continue
        if job.name not in reference:
            reference[job.name] = output
            verdict[job.name] = jobs.check_output(job, output, seed)
            problems += [f"{job.name}: {p}" for p in verdict[job.name]]
        elif output != reference[job.name]:
            verdict[job.name] = verdict[job.name] + ["output differs between runs"]
            problems.append(f"{job.name}: same inputs gave different output")
        if verdict[job.name]:
            failed += 1
    return failed, problems


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end run: CLI processes in a closed loop, whole rounds."""
    round_jobs = jobs.WORKLOADS[workload](seed)
    jobs.OUT.mkdir(exist_ok=True)
    for job in round_jobs:
        job.write_config()
    env = jobs.job_env(BASE_ENV)
    setup = setup_seconds(env)
    records, rounds = [], 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        records += [jobs.run_job(job, env) for job in round_jobs]
        rounds += 1
    failed, problems = count_failures(
        [(r.job, r.returncode, r.output) for r in records], seed)
    walls = [r.wall_s for r in records]
    cells = sum(r.job.cells(r.output) for r in records)
    values = {
        "setup_s": setup,
        "job_s": statistics.median(walls),
        "cells_per_s": cells / sum(walls),
        "peak_rss_mb": max(r.peak_rss_mb for r in records),
    }
    return {"attempted": len(records), "failed": failed, "problems": problems,
            "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}}


def _run_in_process(main, job) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(job.argv())
        except SystemExit as exc:   # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:    # noqa: BLE001 - a crash fails the job, as in a process
            sys.__stderr__.write(f"{' '.join(job.argv())}: {exc!r}\n")
            code = 1
    if job.command == "verify":
        return code, stdout.getvalue()
    path = job.out_path
    return code, path.read_text(encoding="utf-8") if path.exists() else ""


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer run: untraced and traced rounds in this process, alternating."""
    round_jobs = jobs.WORKLOADS[workload](seed)
    jobs.OUT.mkdir(exist_ok=True)
    for job in round_jobs:
        job.write_config()
    import_s = import_seconds(jobs.job_env(BASE_ENV))
    from isingcontrol import cli

    tracer = tracing.Tracer()
    start = time.perf_counter()
    # one warm-up round, so that first-call costs fall on neither side
    results = [(job, *_run_in_process(cli.main, job)) for job in round_jobs]
    untraced_s, traced_s, rounds = 0.0, 0.0, 0
    totals, counts = {}, None
    while rounds < 1 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results += [(job, *_run_in_process(cli.main, job)) for job in round_jobs]
        t1 = time.perf_counter()
        tracer.install()
        try:
            results += [(job, *_run_in_process(cli.main, job)) for job in round_jobs]
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        rounds += 1
        for name, row in tracer.summary().items():
            total = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in ("s", "self_s"):
                total[key] += row[key]
            total["calls"] = total["calls"] or row["calls"]
        if counts is None:
            counts = dict(tracer.counts)
            tracer.write(jobs.OUT / f"trace-{workload}-seed{seed}.csv.gz")
        tracer.reset()
    for total in totals.values():
        total["s"] /= rounds
        total["self_s"] /= rounds
    failed, problems = count_failures(results, seed)
    metrics = {"cli.import_s": (import_s, "s")}
    metrics.update(tracing.per_layer_metrics(totals, counts))
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return {"attempted": len(results), "failed": failed, "problems": problems,
            "metrics": metrics}


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload, each in a fresh benchmark process, merged into one line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in jobs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    line = json.dumps(merged)
    jobs.OUT.mkdir(exist_ok=True)
    (jobs.OUT / f"results-trace{args.trace}-seed{args.seed}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*jobs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (jobs.SRC / "isingcontrol" / "cli.py").is_file():
        sys.stderr.write(f"no program source under {jobs.SRC}\n")
        return 2
    sys.path.insert(0, str(jobs.SRC))    # the checks call the program's planner
    run = trace if args.trace else measure
    try:
        result = run(args.workload, args.seed, args.seconds)
    except ProgramMissing as exc:
        sys.stderr.write(f"cannot run the program under test: {exc}\n")
        return 2
    for problem in result["problems"][:MAX_PROBLEMS_SHOWN]:
        sys.stderr.write(f"FAILED {args.workload}: {problem}\n")
    print(f"{args.workload}: attempted {result['attempted']} jobs, failed {result['failed']}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:<44} {value:>14.6g} {unit}")
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

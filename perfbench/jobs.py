"""Workloads: the CLI jobs each one runs, how a job is spawned, and how its
output is checked.

A job is one ``isingcontrol`` process from spawn to exit.  A workload's
round is a fixed list of jobs derived from the seed; a run repeats whole
rounds.

numpy and scipy are imported only by the checks, after the timed loop: a
job's peak RSS includes the pages it shares with the benchmark process
between fork and exec, so that process is kept small while jobs run.
"""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

FIGURE3_STEPS = 50                   # 50 x 50 = 2500 cells
FIGURE5_STEPS = 49                   # 49 theta x 51 s = 2499 cells
FIGURE5_S_STEPS = 51
FIGURE5_T0 = {"a": math.pi / 2.0, "b": 3.0 * math.pi / 4.0, "c": 7.0 * math.pi / 4.0}
FIGURE4_STEPS = 3
# oracle comparison points of `verify --level full`, suite by suite:
# propagator draws, Schmidt, do-nothing, Gaussian mixing, witnesses
VERIFY_CELLS = 10_000 + 20 ** 3 + 20 * 20 * 5 * 5 + 5 * 5 * 3 * 3 + 5 * 5 * 2 * 2

# (j, t) points at which every figure4 cell converges and a 3-step job
# costs about the same; see README.md for how they were chosen.
FIGURE4_POOL = (
    (0.21787478844112218, 1.6334946004568967),
    (0.1881198686098686, 1.725737801674389),
    (0.19362884672819872, 1.822476462696632),
    (0.17439589536382682, 1.7495382599924187),
    (0.170777223630035, 1.8163705948503723),
    (0.15001662849112254, 1.8178097395075703),
)


@dataclass(frozen=True)
class Job:
    name: str
    command: str                     # figure3, figure4, figure5a/b/c or verify
    steps: int = 0
    scheme: str = ""
    params: dict = field(default_factory=dict)

    @property
    def out_path(self) -> Path:
        return OUT / f"{self.name}.out"

    @property
    def config_path(self) -> Path:
        return OUT / f"{self.name}.cfg"

    def argv(self) -> list[str]:
        if self.command == "verify":
            return ["verify", "--level", "full"]
        args = [self.command, "--steps", str(self.steps)]
        if self.scheme:
            args += ["--scheme", self.scheme]
        return args + ["--config", str(self.config_path), "--out", str(self.out_path)]

    def write_config(self) -> None:
        if self.params:
            self.config_path.write_text(
                "".join(f"{k}={v!r}\n" for k, v in self.params.items()), encoding="utf-8")

    def cells(self, output: str) -> int:
        """Grid cells the job evaluated (oracle points for verify)."""
        if self.command == "verify":
            return VERIFY_CELLS
        if self.command == "figure4":
            # the F_SO pass, the as-printed pass and, after a fallback, a third
            passes = 3 if "# fdr2-mode: reprepare-originals" in output else 2
            return passes * self.steps ** 2
        if self.command == "figure3":
            return self.steps ** 2
        return self.steps * FIGURE5_S_STEPS


def surfaces(seed: int) -> list[Job]:
    """figure3 and figure5{a,b,c} x {n-mix, f1, f2}, fixed values from the seed."""
    rng = random.Random(f"surfaces:{seed}")
    jobs = [Job("figure3", "figure3", FIGURE3_STEPS, params={
        "j": rng.uniform(0.1, 0.3), "t": rng.uniform(1.2, 1.9)})]
    for which, t0 in FIGURE5_T0.items():
        for scheme in ("n-mix", "f1", "f2"):
            jobs.append(Job(f"figure5{which}-{scheme}", f"figure5{which}", FIGURE5_STEPS,
                            scheme, params={
                                "j": rng.uniform(0.1, 0.3),
                                "b_plus": rng.uniform(0.6, 1.4),
                                "t0": t0 * rng.uniform(0.9, 1.1)}))
    return jobs


def optimized(seed: int) -> list[Job]:
    """Reduced-grid figure4 jobs, one per pool point, in an order from the seed.

    The optimizer's cost jumps with (j, t), so every round runs the whole
    pool; the seed shuffles the order (and draws the bases of the check).
    """
    order = random.Random(f"optimized:{seed}").sample(range(len(FIGURE4_POOL)),
                                                      len(FIGURE4_POOL))
    return [Job(f"figure4-{k}", "figure4", FIGURE4_STEPS,
                params={"j": FIGURE4_POOL[k][0], "t": FIGURE4_POOL[k][1]})
            for k in order]


def verify(seed: int) -> list[Job]:
    """One ``verify --level full`` job; it takes no input, so the seed is unused."""
    return [Job("verify", "verify")]


WORKLOADS = {"surfaces": surfaces, "optimized": optimized, "verify": verify}


def job_env(base: dict) -> dict:
    """``base`` with the package source put first on PYTHONPATH."""
    env = dict(base)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class JobRecord:
    job: Job
    wall_s: float
    peak_rss_mb: float
    returncode: int
    output: str


def run_job(job: Job, env: dict) -> JobRecord:
    """Spawn one CLI job and time it from spawn to exit.

    stdout and stderr go to files so the child never blocks on a pipe; the
    CSV (or, for verify, stdout) is read back after the timed span.
    """
    stdout_path = OUT / f"{job.name}.stdout"
    with open(stdout_path, "wb") as out, open(OUT / f"{job.name}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "isingcontrol.cli", *job.argv()],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    source = stdout_path if job.command == "verify" else job.out_path
    output = source.read_text(encoding="utf-8") if source.exists() else ""
    return JobRecord(job, wall, usage.ru_maxrss / 1024.0, proc.returncode, output)


def _figure5_correction(job: Job):
    """Correcting unitary of an f1/f2 job, from the program's planner."""
    import numpy as np

    import checks
    from isingcontrol import sweeps
    from isingcontrol.control import plan_situation1, plan_situation2
    from isingcontrol.evolution import params_from_bj

    fixed = sweeps.figure5_spec(job.command[-1], scheme=job.scheme, theta_steps=job.steps,
                                overrides=job.params).fixed
    b_plus, j, t0 = fixed["b_plus"], fixed["j"], fixed["t0"]
    if job.scheme == "f1":
        plan = plan_situation1(t0, params_from_bj(b_plus, j), fixed["n"], fixed["m"])
        h = checks.hamiltonian_bj(b_plus + plan.delta_b_plus, j)
    else:
        plan = plan_situation2(t0, sweeps.fields_from_bj(b_plus, j), fixed["T"],
                               fixed["n"], fixed["m"])
        bp, bm = plan.b_plus_prime, plan.b_minus_prime
        h = checks.hamiltonian((bp + bm) / 2.0, (bp - bm) / 2.0, 0.0)
    return checks.propagators(h, np.array([plan.duration]))[0]


def check_output(job: Job, output: str, seed: int) -> list[str]:
    """Every check of one job's output against the rebuilt model."""
    import numpy as np

    import checks

    if job.command == "verify":
        return checks.check_verify_lines(output.split("\n"))
    p = job.params
    thetas = np.linspace(0.0, math.pi / 2.0, job.steps)
    if job.command == "figure4":
        b_plus = np.linspace(0.0, 5.0, job.steps)
        rng = np.random.default_rng([seed, 3, job.steps])
        return checks.check_figure4(output, thetas, b_plus, p["j"], p["t"], rng)
    if job.command == "figure3":
        b_plus = np.linspace(0.0, 5.0, job.steps)
        problems, values = checks.check_csv_grid(output, thetas, b_plus)
        if values is None:
            return problems
        return problems + checks.check_figure3(values, thetas, b_plus, p["j"], p["t"])
    s_values = np.linspace(0.0, p["t0"] / 3.0, FIGURE5_S_STEPS)
    problems, values = checks.check_csv_grid(output, thetas, s_values)
    if values is None:
        return problems
    correction = None if job.scheme == "n-mix" else _figure5_correction(job)
    return problems + checks.check_figure5(values, thetas, s_values, p["b_plus"], p["j"],
                                           p["t0"], correction)

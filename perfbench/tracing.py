"""In-process tracing of the program's layers, from outside the program.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent) in memory.  The modules import each other with
``from ... import``, so a wrapper is installed under every module attribute
that holds the original function, not only in the defining module.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> traced functions; a span is named "<module>.<function>"
LAYERS = {
    "cli": ("main",),
    "sweeps": ("run_sweep",),
    "discrimination": ("f_so", "f_ab", "f_n", "f_n_pipeline"),
    "stochastic": ("f_n_mix", "f_n_mix_pipeline", "f1", "f2", "dephase",
                   "gaussian_mixed_state", "quadrature_oracle", "witness_table_numeric"),
    "evolution": ("evolution_closed_form", "evolution_oracle"),
    "states": ("evolved_pair_bj", "schmidt", "schmidt_closed_form"),
    "control": ("plan_situation1", "plan_situation2"),
    "optimize": ("optimize_fdr2", "group_probs_batch", "coordinate_ascent"),
    "verify": ("run_verify",),
}
PACKAGE = "isingcontrol"


def _cells(args, kwargs, result):
    return result.values.size


def _rows(args, kwargs, result):
    return len(args[0])


def _converged(args, kwargs, result):
    return int(result.converged)


# span name -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "sweeps.run_sweep": ("sweeps.cells", _cells),
    "optimize.group_probs_batch": ("optimize.group_probs_batch.rows", _rows),
    "optimize.optimize_fdr2": ("optimize.optimize_fdr2.converged", _converged),
}


class Tracer:
    """Spans and counters of one traced stretch, kept in memory."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index or -1)
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every module of the package that holds a traced function."""
        homes = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Spans nest strictly (one thread), so a span's children never
        overlap and its self time is its duration minus theirs.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[k]
        return dict(out)

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: name, start and end in microseconds from the
        first span, and the index of the parent span (-1 for a root)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent\n")
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k},{name},{(start - origin) * 1e6:.1f},"
                         f"{(end - origin) * 1e6:.1f},{parent}\n")


def per_layer_metrics(summary: dict, counts: dict) -> dict:
    """The per-layer metrics of one round, by name, as (value, unit)."""
    def row(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    metrics = {
        "cli.main.self_s": (row("cli.main")["self_s"], "s"),
        "sweeps.run_sweep.s": (row("sweeps.run_sweep")["s"], "s"),
        "sweeps.run_sweep.self_s": (row("sweeps.run_sweep")["self_s"], "s"),
        "sweeps.cells": (counts.get("sweeps.cells", 0), "count"),
    }
    for layer, names in LAYERS.items():
        if layer in ("cli", "sweeps", "optimize", "verify"):
            continue
        for fname in names:
            r = row(f"{layer}.{fname}")
            metrics[f"{layer}.{fname}.calls"] = (r["calls"], "count")
            metrics[f"{layer}.{fname}.s"] = (r["s"], "s")
    opt = row("optimize.optimize_fdr2")
    metrics["optimize.optimize_fdr2.calls"] = (opt["calls"], "count")
    metrics["optimize.optimize_fdr2.s"] = (opt["s"], "s")
    converged = counts.get("optimize.optimize_fdr2.converged", 0)
    metrics["optimize.optimize_fdr2.converged_ratio"] = (
        converged / opt["calls"] if opt["calls"] else 0.0, "ratio")
    metrics["optimize.group_probs_batch.calls"] = (row("optimize.group_probs_batch")["calls"],
                                                   "count")
    metrics["optimize.group_probs_batch.rows"] = (
        counts.get("optimize.group_probs_batch.rows", 0), "count")
    metrics["optimize.coordinate_ascent.s"] = (row("optimize.coordinate_ascent")["s"], "s")
    metrics["verify.run_verify.s"] = (row("verify.run_verify")["s"], "s")
    return metrics

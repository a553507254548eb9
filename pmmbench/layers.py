"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps pmmkit's public functions at each module boundary,
in every namespace where a caller looks them up: the module that defines a
function, each pmmkit module that imported it by name (``cli`` imported
``evaluate``, ``pipeline`` imported ``batch_filter_means``), and the kernel
backend's module object, whose attributes the simulate and filtering code
read at call time.  ``Tracer.uninstall`` puts the originals back.  Spans
are kept in memory; ``summarize`` turns them into the per-layer metrics.

A layer is a pmmkit module.  A span's self time is its duration minus the
durations of its direct children.  A layer is busy while any of its spans
is open, so its busy time adds the spans that no span of the same layer
encloses.
"""

from __future__ import annotations

import importlib
import inspect
import os
import re
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# Layer -> (module, {attribute: span name}).  The kernels layer is the
# backend module that pmmkit._backend selected.
TARGETS = {
    "cli": ("pmmkit.cli", {"main": "main", "_read_y_column": "read_y_column",
                           "_atomic_write": "atomic_write"}),
    "pipeline": ("pmmkit.pipeline", ["read_series_csv", "fit_detrend", "detrend",
                                     "estimate_params", "evaluate"]),
    "filtering": ("pmmkit.filtering", ["run_filter", "batch_filter_means"]),
    "forecasting": ("pmmkit.forecasting", ["forecast"]),
    "error_analysis": ("pmmkit.error_analysis", [
        "mse_sweep", "theoretical_mse_pmm", "theoretical_mse_hmm_under_pmm",
        "filter_coefficients", "observation_covariance", "curves_to_csv"]),
    "simulate": ("pmmkit.simulate", ["sample", "trajectory_to_csv", "monte_carlo_mse",
                                     "empirical_covariances"]),
    "kernels": (None, ["simulate_pairs", "simulate_block", "batch_filter_means"]),
    "model": ("pmmkit.model", ["validate", "markov_form"]),
}
IMPORT_PACKAGES = ("pmmkit", "scipy", "numpy")


def _count_batch(args, result):
    obs, model = args["obs"], args["m"]
    copied = not (obs.flags.c_contiguous and obs.dtype == "float64")
    return {
        "cells": int(obs.size),
        "copy_bytes": int(obs.size) * 8 if copied else 0,
        "distinct": (model.A.tobytes(), model.Q.tobytes(), obs.shape[1]),
    }


# Work counted per span name, as (metric suffixes, counter of the bound
# arguments and result).  ``distinct`` becomes distinct_ratio: distinct
# (model, n) pairs over calls.  Bytes are computed from array sizes or read
# from the written file's size, never measured as traffic.
COUNTERS: dict[str, tuple[list[str], Callable]] = {
    "cli.read_y_column": (["rows"], lambda a, r: {"rows": int(r.size)}),
    "cli.atomic_write": (["bytes"], lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    "pipeline.read_series_csv": (["rows"], lambda a, r: {"rows": int(r[0].size)}),
    "filtering.run_filter": (["steps"], lambda a, r: {"steps": len(a["ys"])}),
    "filtering.batch_filter_means": (["cells", "copy_bytes", "distinct_ratio"], _count_batch),
    "error_analysis.mse_sweep": (
        ["points"], lambda a, r: {"points": len(a["n_values"]) * len(a["k_values"])}),
    "error_analysis.observation_covariance": (
        ["matrix_bytes"], lambda a, r: {"matrix_bytes": 8 * int(a["n"]) ** 2}),
    "simulate.sample": (["steps"], lambda a, r: {"steps": int(a["n_steps"])}),
    "simulate.trajectory_to_csv": (["rows"], lambda a, r: {"rows": len(a["traj"])}),
    "simulate.monte_carlo_mse": (["reps"], lambda a, r: {"reps": int(a["reps"])}),
}

# Metrics derived from a span's total time and one of its counts:
# (span, count, unit, work per second rather than microseconds per unit).
RATES = {
    "pipeline.read_series_csv.rows_per_s": ("pipeline.read_series_csv", "rows", "1/s", True),
    "filtering.run_filter.us_per_step": ("filtering.run_filter", "steps", "us", False),
    "error_analysis.mse_sweep.points_per_s": ("error_analysis.mse_sweep", "points", "1/s", True),
}
SELF_TIMES = ["pipeline.evaluate"]
COMPUTED = ["filtering.batch_filter_means.copy_bytes",
            "error_analysis.observation_covariance.matrix_bytes"]


def span_names() -> list[str]:
    names = []
    for layer, (_, attrs) in TARGETS.items():
        spans = attrs.values() if isinstance(attrs, dict) else attrs
        names += [f"{layer}.{span}" for span in spans]
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {f"import.{pkg}_s": "s" for pkg in IMPORT_PACKAGES}
    for name in span_names():
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
        for key in COUNTERS.get(name, ([], None))[0]:
            units[f"{name}.{key}"] = (
                "ratio" if key == "distinct_ratio" else "B" if key.endswith("bytes") else "count"
            )
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update({rate: spec[2] for rate, spec in RATES.items()})
    for layer in TARGETS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.uncovered_s"] = "s"
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    distinct: dict = field(default_factory=lambda: defaultdict(set))
    _stack: list[int] = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def count(self, name: str, work: dict) -> None:
        for key, value in work.items():
            if key == "distinct":
                self.distinct[name].add(value)
            else:
                self.counts[f"{name}.{key}"] += value

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name, (None, None))[1]
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count(name, counter(bound.arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every pmmkit namespace that holds it."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "pmmkit"]
        for layer, (module_name, attrs) in TARGETS.items():
            home = (importlib.import_module("pmmkit._backend").kernels
                    if module_name is None else importlib.import_module(module_name))
            pairs = attrs.items() if isinstance(attrs, dict) else ((a, a) for a in attrs)
            for attr, span in pairs:
                fn = getattr(home, attr)
                wrapper = self.wrap(f"{layer}.{span}", fn)
                for module in modules + [home]:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, key, fn))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()


def summarize(tracer: Tracer) -> dict[str, float]:
    """Busy time, self time, calls and counts per span name and per layer,
    plus ``covered_s``: the time under root spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for name in span_names():
        out[f"{name}.s"] = 0.0
        out[f"{name}.calls"] = 0
    for layer in TARGETS:
        out[f"{layer}.busy_s"] = out[f"{layer}.self_s"] = 0.0
    for i, span in enumerate(spans):
        duration = span.end - span.start
        layer = span.name.split(".")[0]
        own = duration - child_time[i]
        out[f"{layer}.self_s"] += own
        out[f"{span.name}.self_s"] += own
        out[f"{span.name}.calls"] += 1
        # Nested calls of one function count once towards its total time.
        ancestors = list(_ancestors(spans, i))
        if all(spans[a].name != span.name for a in ancestors):
            out[f"{span.name}.s"] += duration
        if all(spans[a].name.split(".")[0] != layer for a in ancestors):
            out[f"{layer}.busy_s"] += duration
        if span.parent is None:
            out["covered_s"] += duration
    out.update(tracer.counts)
    for name, keys in tracer.distinct.items():
        calls = out[f"{name}.calls"]
        out[f"{name}.distinct_ratio"] = len(keys) / calls if calls else 0.0
    for rate, (name, key, _, per_second) in RATES.items():
        seconds, work = out[f"{name}.s"], out.get(f"{name}.{key}", 0)
        if per_second:
            out[rate] = work / seconds if seconds else 0.0
        else:
            out[rate] = 1e6 * seconds / work if work else 0.0
    return dict(out)


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.<pkg>_s from ``python -X importtime`` output.

    pmmkit's figure is its cumulative import, which includes numpy and
    scipy; each of those is the sum of its own modules' self times.
    """
    out = {f"import.{pkg}_s": 0.0 for pkg in IMPORT_PACKAGES}
    for match in _IMPORT_LINE.finditer(stderr):
        self_us, cumulative_us, module = match.groups()
        top = module.split(".")[0]
        if module == "pmmkit":
            out["import.pmmkit_s"] = int(cumulative_us) / 1e6
        elif top in IMPORT_PACKAGES and top != "pmmkit":
            out[f"import.{top}_s"] += int(self_us) / 1e6
    return out


def median_dicts(dicts: list[dict]) -> dict:
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}

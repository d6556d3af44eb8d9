"""Span tracing for the passloc benchmark, done from outside the package.

While a ``Tracer`` is active, each public function listed in ``REBIND`` is
replaced, at the module attribute its caller looks up, by a wrapper that
records one span (name, start, end, parent) per call. The originals are put
back when the ``with`` block ends. Spans stay in memory until the run is over
and are then written out as JSON lines.

A span's self time is its duration minus the durations of its direct
children. Every ``*.ms`` metric is self time per trial, as measured and not
scaled to reference speed, and every count is per trial, where a trial is one
``harness.run_trial`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# (module the caller looks the name up in, attribute, span name)
REBIND = (
    ("passloc.harness", "run_sweep", "harness.run_sweep"),
    ("passloc.harness", "run_trial", "harness.run_trial"),
    ("passloc.harness", "sample_scene", "geometry.sample_scene"),
    ("passloc.harness", "build_mw_layout", "geometry.layout"),
    ("passloc.harness", "build_sw_layout", "geometry.layout"),
    ("passloc.harness", "custom_layout", "geometry.layout"),
    ("passloc.harness", "make_schedule", "channel.make_schedule"),
    ("passloc.harness", "synthesize_paths", "channel.synthesize_paths"),
    ("passloc.harness", "measure", "channel.measure"),
    ("passloc.harness", "run_omp_gcl", "estimator.run_omp_gcl"),
    ("passloc.harness", "run_polar_baseline", "estimator.run_polar_baseline"),
    # run_sweep imports build_polar_dictionary from passloc.dictionary when called
    ("passloc.dictionary", "build_polar_dictionary", "dictionary.build"),
    ("passloc.estimator", "build_dp_dictionary", "dictionary.build"),
    ("passloc.estimator", "project_dictionary", "dictionary.project"),
    ("passloc.estimator", "omp_direction", "estimator.omp_direction"),
    ("passloc.estimator", "resolve_signs", "estimator.resolve_signs"),
    ("passloc.estimator", "path_vector", "channel.path_vector"),
)

# Which end-to-end metric each layer metric is expected to move, and where.
LAYER_TO_END_TO_END = {
    "geometry": "nothing above 0.2% of a trial on any workload",
    "channel": "path_vector calls: trials_per_s and trial_ms_p90 on mw-scatter; "
               "no change on nf-polar",
    "dictionary": "trials_per_s on mw-scatter and mw-wide; no change on nf-polar",
    "estimator": "sign work: trials_per_s on mw-wide only",
    "harness": "a parallel sweep: trials_per_s on all three workloads, seen as "
               "lower harness.run_sweep wall time with unchanged layer self times",
}

PER_LAYER_UNITS = {
    "geometry.sample_scene.ms": "ms",
    "geometry.layout.ms": "ms",
    "channel.make_schedule.ms": "ms",
    "channel.synthesize_paths.ms": "ms",
    "channel.measure.ms": "ms",
    "channel.path_vector.calls": "count",
    "channel.path_vector.ms": "ms",
    "dictionary.build.calls": "count",
    "dictionary.build.ms": "ms",
    "dictionary.project.calls": "count",
    "dictionary.project.ms": "ms",
    "dictionary.project.gflop_computed": "GFLOP",
    "dictionary.project.mb_computed": "MB",
    "estimator.omp_direction.calls": "count",
    "estimator.omp_direction.ms": "ms",
    "estimator.resolve_signs.calls": "count",
    "estimator.resolve_signs.ms": "ms",
    "estimator.sign_candidates": "count",
    "estimator.run_omp_gcl.self_ms": "ms",
    "estimator.run_polar_baseline.self_ms": "ms",
    "estimator.iter_use_ratio": "ratio",
    "harness.run_trial.self_ms": "ms",
    "harness.run_sweep.self_ms": "ms",
    "trace.trials_per_s_untraced": "1/s",
    "trace.trials_per_s_traced": "1/s",
    "trace.overhead_trials_per_s": "1/s",
}


class Tracer:
    """Context manager that rebinds ``REBIND`` and records spans and counters."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in REBIND:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        unrestored = [a for m, a, o in self._saved if getattr(m, a) is not o]
        self._saved.clear()
        if unrestored:
            raise RuntimeError(f"traced names not restored: {unrestored}")

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = t0, t1
            if count is not None:
                count(self.counters, signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, name, start_s, end_s, parent."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_s": t0,
                                     "end_s": t1, "parent": parent}) + "\n")

    def per_layer(self) -> dict:
        """Per-trial self times and counts keyed like ``PER_LAYER_UNITS``."""
        dur = [t1 - t0 for _, t0, t1, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for i, (name, _, _, _) in enumerate(self.spans):
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        trials = calls["harness.run_trial"]
        if trials == 0:
            raise RuntimeError("traced run finished no trial")
        c = self.counters
        # builds per (subarray, path, allowed outer iteration) of the OMP-GCL loop
        slots = c["gcl_build_slots"]
        builds = sum(1 for name, _, _, parent in self.spans
                     if name == "dictionary.build" and parent >= 0
                     and self.spans[parent][0] == "estimator.run_omp_gcl")

        def ms(name):
            return 1e3 * self_s[name] / trials

        def per_trial(name):
            return calls[name] / trials

        return {
            "geometry.sample_scene.ms": ms("geometry.sample_scene"),
            "geometry.layout.ms": ms("geometry.layout"),
            "channel.make_schedule.ms": ms("channel.make_schedule"),
            "channel.synthesize_paths.ms": ms("channel.synthesize_paths"),
            "channel.measure.ms": ms("channel.measure"),
            "channel.path_vector.calls": per_trial("channel.path_vector"),
            "channel.path_vector.ms": ms("channel.path_vector"),
            "dictionary.build.calls": per_trial("dictionary.build"),
            "dictionary.build.ms": ms("dictionary.build"),
            "dictionary.project.calls": per_trial("dictionary.project"),
            "dictionary.project.ms": ms("dictionary.project"),
            "dictionary.project.gflop_computed": c["project_flop"] / 1e9 / trials,
            "dictionary.project.mb_computed": c["project_bytes"] / 1e6 / trials,
            "estimator.omp_direction.calls": per_trial("estimator.omp_direction"),
            "estimator.omp_direction.ms": ms("estimator.omp_direction"),
            "estimator.resolve_signs.calls": per_trial("estimator.resolve_signs"),
            "estimator.resolve_signs.ms": ms("estimator.resolve_signs"),
            "estimator.sign_candidates": c["sign_candidates"] / trials,
            "estimator.run_omp_gcl.self_ms": ms("estimator.run_omp_gcl"),
            "estimator.run_polar_baseline.self_ms": ms("estimator.run_polar_baseline"),
            "estimator.iter_use_ratio": builds / slots if slots else 0.0,
            "harness.run_trial.self_ms": ms("harness.run_trial"),
            "harness.run_sweep.self_ms": ms("harness.run_sweep"),
        }


def _count_project(c, a, out):
    # complex (T, N) @ (N, G): 8 real flops per multiply-add; 16-byte elements
    # for both operands and the product. Computed from shapes, not measured.
    t, n = a["w"].shape
    g = a["dictionary"].atoms.shape[1]
    c["project_flop"] += 8.0 * t * n * g
    c["project_bytes"] += 16.0 * (t * n + n * g + t * g)


def _count_signs(c, a, out):
    c["sign_candidates"] += 2 ** len(a["refs_xy"])


def _count_gcl(c, a, out):
    c["gcl_build_slots"] += a["layout"].m * len(out.paths) * a["config"].max_outer_iters


_COUNTERS = {
    "dictionary.project": _count_project,
    "estimator.resolve_signs": _count_signs,
    "estimator.run_omp_gcl": _count_gcl,
}

"""Spans around the calls into each absplace layer, recorded from outside.

A Tracer replaces module attributes of absplace with wrappers that record
one span per call (name, start, end, parent span) and the counters read at
the same boundary, then restores them. Only the names that callers look up
at call time are wrapped, so a span sits exactly where one layer calls
into another:

- tomography.traverse_voxels, as channel (through shadowing_line_integral)
  and the estimator's design matrix call it; tomography.lsmr as
  estimate_slf calls it; estimate_slf itself;
- channel.build_capacity_matrix, as the benchmark and run_experiment call it;
- placement.solve_placement, and admm_solve, greedy_cover_from_scores and
  covers as solve_placement calls them;
- reference.exhaustive_min_abs as run_experiment calls it;
- scenario.build_urban, sample_users and run_experiment.

Spans stay in memory until write_spans. A span's self time is its duration
minus the durations of its direct children; calls are sequential, so the
children never overlap.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

import numpy as np

from absplace import channel, placement, scenario, tomography

PER_LAYER_UNITS = {
    "tomography.links": "count",
    "tomography.crossings": "count",
    "tomography.traverse_s": "s",
    "tomography.traverse_us_per_link": "us",
    "tomography.estimate_s": "s",
    "tomography.lsmr_s": "s",
    "tomography.lsmr_iterations": "count",
    "channel.capacity_matrix_s": "s",
    "channel.us_per_link": "us",
    "channel.self_us_per_link": "us",
    "placement.solve_placement_s": "s",
    "placement.admm_s": "s",
    "placement.admm_calls": "count",
    "placement.admm_iterations": "count",
    "placement.admm_iterations_p50": "count",
    "placement.admm_iterations_max": "count",
    "placement.us_per_iteration": "us",
    "placement.greedy_s": "s",
    "placement.covers_calls": "count",
    "placement.columns_after_threshold": "count",
    "placement.repaired": "count",
    "placement.pruned": "count",
    "reference.exhaustive_s": "s",
    "scenario.build_urban_s": "s",
    "scenario.sample_users_s": "s",
    "scenario.run_experiment_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.admm_iterations: list[int] = []
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, on_return):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _patch(self, module, attr, name, on_return=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, on_return))

    def install(self) -> None:
        c = self.counts

        def on_traverse(args, result):
            c["tomography.links"] += 1
            c["tomography.crossings"] += result.num_intervals

        def on_lsmr(args, result):
            c["tomography.lsmr_iterations"] += int(result[2])

        def on_matrix(args, result):
            c["channel.links"] += result.values.size

        def on_admm(args, result):
            self.admm_iterations.append(result.iterations)

        def on_greedy(args, result):
            initial = {int(g) for g in args[3]}
            c["placement.columns_after_threshold"] += len(initial)
            c["placement.repaired"] += len(set(result) - initial)
            c["placement.pruned"] += len(initial - set(result))

        self._patch(tomography, "traverse_voxels", "tomography.traverse_voxels", on_traverse)
        self._patch(tomography, "lsmr", "tomography.lsmr", on_lsmr)
        self._patch(tomography, "estimate_slf", "tomography.estimate_slf")
        for module in (channel, scenario):
            self._patch(module, "build_capacity_matrix", "channel.build_capacity_matrix", on_matrix)
        for module in (placement, scenario):
            self._patch(module, "solve_placement", "placement.solve_placement")
        self._patch(placement, "admm_solve", "placement.admm_solve", on_admm)
        self._patch(
            placement, "greedy_cover_from_scores", "placement.greedy_cover_from_scores", on_greedy
        )
        self._patch(placement, "covers", "placement.covers")
        self._patch(scenario, "exhaustive_min_abs", "reference.exhaustive_min_abs")
        for attr in ("build_urban", "sample_users", "run_experiment"):
            self._patch(scenario, attr, f"scenario.{attr}")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _times(self):
        """Total and self time per span name."""
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans])
        dur = np.array([s[2] for s in self.spans]) - start
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        total, self_time, calls = Counter(), Counter(), Counter()
        for name, d, own in zip(names, dur, dur - child):
            total[name] += d
            self_time[name] += own
            calls[name] += 1
        return total, self_time, calls

    def per_layer(self, overhead_pct: float) -> dict[str, float]:
        total, self_time, calls = self._times()
        c = self.counts
        links = c["tomography.links"]
        matrix_links = c["channel.links"]
        its = self.admm_iterations
        admm_s = total["placement.admm_solve"]

        def per(value, count, scale=1e6):
            return value / count * scale if count else 0.0

        metrics = {
            "tomography.links": links,
            "tomography.crossings": c["tomography.crossings"],
            "tomography.traverse_s": total["tomography.traverse_voxels"],
            "tomography.traverse_us_per_link": per(total["tomography.traverse_voxels"], links),
            "tomography.estimate_s": total["tomography.estimate_slf"],
            "tomography.lsmr_s": total["tomography.lsmr"],
            "tomography.lsmr_iterations": c["tomography.lsmr_iterations"],
            "channel.capacity_matrix_s": total["channel.build_capacity_matrix"],
            "channel.us_per_link": per(total["channel.build_capacity_matrix"], matrix_links),
            "channel.self_us_per_link": per(self_time["channel.build_capacity_matrix"], matrix_links),
            "placement.solve_placement_s": total["placement.solve_placement"],
            "placement.admm_s": admm_s,
            "placement.admm_calls": len(its),
            "placement.admm_iterations": sum(its),
            "placement.admm_iterations_p50": statistics.median(its) if its else 0,
            "placement.admm_iterations_max": max(its, default=0),
            "placement.us_per_iteration": per(admm_s, sum(its)),
            "placement.greedy_s": total["placement.greedy_cover_from_scores"],
            "placement.covers_calls": calls["placement.covers"],
            "placement.columns_after_threshold": c["placement.columns_after_threshold"],
            "placement.repaired": c["placement.repaired"],
            "placement.pruned": c["placement.pruned"],
            "reference.exhaustive_s": total["reference.exhaustive_min_abs"],
            "scenario.build_urban_s": total["scenario.build_urban"],
            "scenario.sample_users_s": total["scenario.sample_users"],
            "scenario.run_experiment_s": self_time["scenario.run_experiment"],
            "trace.spans": len(self.spans),
            "trace.overhead_pct": overhead_pct,
        }
        return {name: float(value) for name, value in metrics.items()}

    def write_spans(self, path) -> None:
        """One CSV row per span; times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")

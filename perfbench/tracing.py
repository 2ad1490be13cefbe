"""Spans recorded from outside stepopt, around calls into its public functions.

``installed(tracer)`` replaces each traced public function, wherever a
stepopt module holds a reference to it, by a wrapper that records one
span per call: name, start, end, parent span, and the pass it belongs
to.  Internal calls that go through a module global or a method are
caught as well (for example ``score_error_weight`` inside an objective
evaluation); private helpers are not traced.  Spans stay in memory
until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

import stepopt  # noqa: F401  (the package re-exports names that are patched too)
from stepopt import objective, optimizer, schedule_file, schedules, simulator, weights

# (owner, attribute, span name); owners are modules or classes.
TRACED = (
    (schedules.NoiseSchedule, "t_of_lambda", "schedules.t_of_lambda"),
    (schedules.NoiseSchedule, "lambda_of_t", "schedules.lambda_of_t"),
    (schedules, "uniform_t_grid", "schedules.grid"),
    (schedules, "uniform_lambda_grid", "schedules.grid"),
    (schedules, "edm_grid", "schedules.grid"),
    (weights, "weights_lagrange", "weights.table"),
    (weights, "weights_taylor", "weights.table"),
    (weights, "aggregate", "weights.aggregate"),
    (objective, "objective_value", "objective.value"),
    (objective, "objective_gradient", "objective.gradient"),
    (objective, "score_error_weight", "objective.score_error_weight"),
    (optimizer, "optimize_steps", "optimizer.run"),
    (simulator, "evaluate_schedules", "simulator.evaluate"),
    (simulator, "reference_solution", "simulator.reference"),
    (simulator, "data_prediction", "simulator.posterior_mean"),
    (simulator, "multistep_sample", "simulator.sampler"),
    (schedule_file.ScheduleFile, "write", "schedule_file.write"),
    (schedule_file.ScheduleFile, "read", "schedule_file.read"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "label", "info")

    def __init__(self, name, start, parent, label):
        self.name, self.start, self.end = name, start, start
        self.parent, self.label, self.info = parent, label, None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store.  Spans are kept only while ``label`` is set."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.label: str | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.label))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def recording(self, label: str | None):
        """Label new spans with ``label``; ``None`` pauses recording."""
        previous, self.label = self.label, label
        try:
            yield
        finally:
            self.label = previous

    def select(self, label_prefix: str) -> list[Span]:
        return [s for s in self.spans if s.label.startswith(label_prefix)]

    def self_times(self, label_prefix: str) -> dict[str, float]:
        """Seconds per module of span time not covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.label.startswith(label_prefix):
                out[s.name.split(".")[0]] += s.duration - child_time[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "workload": self.workload, "pass": s.label, "info": s.info,
                }) + "\n")


def _info_for(name: str, args):
    if name == "schedules.t_of_lambda":
        return {"points": int(np.size(args[1])), "family": args[0].family}
    if name == "simulator.sampler":
        return {"steps": args[0].grid.n_steps}
    return None


def _wrap(tracer: Tracer, name: str, fn):
    if name == "optimizer.run":
        return _wrap_optimizer(tracer, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.label is None:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        span.info = _info_for(name, args)
        return result

    return traced


def _wrap_optimizer(tracer: Tracer, fn):
    """Counts accepted steps through the public ``on_accept`` hook."""

    @functools.wraps(fn)
    def traced(spec, config=None, on_accept=None):
        if tracer.label is None:
            return fn(spec, config, on_accept)
        calls = [0]

        def count(iteration, x, f):
            calls[0] += 1
            if on_accept is not None:
                on_accept(iteration, x, f)

        index = tracer.open("optimizer.run")
        try:
            result = fn(spec, config, count)
        finally:
            span = tracer.close(index)
        # the hook also sees the initial point, which is not a step
        span.info = {
            "iterations": result.iterations,
            "accepted": calls[0] - 1,
            "converged": bool(result.converged),
        }
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    modules = [m for n, m in sys.modules.items() if n == "stepopt" or n.startswith("stepopt.")]
    undo = []
    for owner, attr, name in TRACED:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, name, raw.__func__))
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
            continue
        wrapped = _wrap(tracer, name, raw)
        targets = [owner] if isinstance(owner, type) else [
            m for m in modules if m.__dict__.get(attr) is raw
        ]
        for target in targets:
            setattr(target, attr, wrapped)
            undo.append((target, attr, raw))
    try:
        yield tracer
    finally:
        for target, attr, raw in reversed(undo):
            setattr(target, attr, raw)



def layer_metrics(tracer: Tracer, label_prefix: str) -> dict[str, float]:
    """Per-layer metrics from the spans whose pass label starts with ``label_prefix``.

    Metrics of layers without spans there are left out.
    """
    spans = tracer.select(label_prefix)
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    out: dict[str, float] = {}

    def mean_duration(name: str, scale: float, metric: str) -> None:
        if by[name]:
            out[metric] = scale * sum(s.duration for s in by[name]) / len(by[name])

    for family in ("vp_linear", "vp_cosine", "ve_edm"):
        calls = [s for s in by["schedules.t_of_lambda"] if s.info["family"] == family]
        points = sum(s.info["points"] for s in calls)
        if points:
            out[f"schedules.t_of_lambda_us.{family}"] = (
                1e6 * sum(s.duration for s in calls) / points)
    mean_duration("schedules.lambda_of_t", 1e6, "schedules.lambda_of_t_us")
    mean_duration("schedules.grid", 1e6, "schedules.grid_us")
    mean_duration("weights.table", 1e6, "weights.table_us")
    mean_duration("weights.aggregate", 1e6, "weights.aggregate_us")
    mean_duration("objective.value", 1e6, "objective.value_us")
    mean_duration("objective.gradient", 1e3, "objective.gradient_ms")
    mean_duration("objective.score_error_weight", 1e6, "objective.score_error_weight_us")

    runs = by["optimizer.run"]
    if runs:
        run_time = sum(s.duration for s in runs)
        iterations = sum(s.info["iterations"] for s in runs)
        accepted = sum(s.info["accepted"] for s in runs)
        out["optimizer.run_s"] = run_time / len(runs)
        out["optimizer.iterations"] = iterations / len(runs)
        out["optimizer.accepted_steps"] = accepted / len(runs)
        out["optimizer.iter_ms"] = 1e3 * run_time / max(iterations, 1)
        out["optimizer.accept_ratio"] = accepted / max(iterations, 1)
        out["optimizer.converged_share"] = sum(s.info["converged"] for s in runs) / len(runs)
        # share of optimizer time spent in the objective calls it made
        in_objective = sum(
            s.duration for s in spans
            if s.name in ("objective.value", "objective.gradient")
            and s.parent >= 0 and tracer.spans[s.parent].name == "optimizer.run")
        out["optimizer.objective_share"] = in_objective / run_time

    mean_duration("simulator.reference", 1.0, "simulator.reference_s")
    mean_duration("simulator.posterior_mean", 1e6, "simulator.posterior_mean_us")
    mean_duration("simulator.sampler", 1e3, "simulator.sampler_ms")
    if by["simulator.sampler"]:
        steps = sum(s.info["steps"] for s in by["simulator.sampler"])
        out["simulator.sampler_step_us"] = (
            1e6 * sum(s.duration for s in by["simulator.sampler"]) / steps)
    mean_duration("simulator.evaluate", 1.0, "simulator.evaluate_s")
    mean_duration("schedule_file.write", 1e6, "schedule_file.write_us")
    mean_duration("schedule_file.read", 1e6, "schedule_file.read_us")
    for command in ("baseline", "optimize", "simulate", "dump_weights"):
        mean_duration(f"cli.{command}", 1.0, f"cli.{command}_s")
    return out

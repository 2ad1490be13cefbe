"""The benchmark's tracer (``perfbench/tracing.py``) wraps stepopt functions by
name.  A renamed or removed function would silently drop its spans, so each
traced ``(owner, attribute)`` pair must still exist, and the benchmark's layer
probes must still run and yield every per-layer metric they stand in for.  The
outputs the benchmark compares with its seed record must also stay within its
drift tolerance, which the benchmark itself checks only when it runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# measured outside the spans: by an oracle and by comparing traced with untraced passes
NOT_FROM_SPANS = {"simulator.ref_max_err", "trace.overhead_s"}


def _load(name, monkeypatch=None):
    spec = importlib.util.spec_from_file_location(f"_stepopt_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:  # dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load("tracing").TRACED


def test_every_traced_name_exists():
    traced = _traced()
    assert traced
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in traced
        if attr not in vars(owner)
    ]
    assert missing == []


def test_layer_probes_yield_every_per_layer_metric(tmp_path, monkeypatch):
    tracing = _load("tracing")
    workloads = _load("workloads", monkeypatch)
    tracer = tracing.Tracer("sweep")
    cmds = workloads.Commands(tracer=tracer)
    workloads.setup_sweep(cmds, tmp_path)
    with tracing.installed(tracer):
        for k, (_, call) in enumerate(workloads.probe_steps(cmds, "sweep", tmp_path, 1)):
            with tracer.recording(f"probe-{k}"):
                call()
    assert cmds.failures == {}
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared} - NOT_FROM_SPANS
    assert wanted - set(tracing.layer_metrics(tracer, "probe-")) == set()


@pytest.mark.parametrize("workload", ["sweep", "simulate"])
def test_outputs_match_the_seed_record(tmp_path, monkeypatch, workload):
    benchmath = _load("benchmath")
    workloads = _load("workloads", monkeypatch)
    wl = workloads.WORKLOADS[workload]
    cmds = workloads.Commands()
    wl.setup(cmds, tmp_path)
    values = wl.drift_values(cmds, tmp_path)
    assert cmds.failures == {}
    record = json.loads((PERFBENCH / "seed_record.json").read_text(encoding="utf-8"))[workload]
    value, where = benchmath.drift(values, record)
    assert value <= workloads.DRIFT_TOLERANCE, f"drift {value:.3g} at {where}"

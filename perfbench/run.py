"""Benchmark of the stepopt command line.

Run from the repository root:

    python3 perfbench/run.py --workload {optimize,simulate,sweep} \\
        --seed N --seconds S --trace {0,1}

Each run sets its workload up, repeats the workload's pass until S
seconds and at least three passes have been measured, checks every
output, and prints one line per metric followed by a final JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, scaled to a reference
host speed (hostspeed.py); ``--trace 1`` runs
with spans around stepopt's public functions and reports the per-layer
metrics.  See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"
SETUP_REPEATS = 5
# timings are medians over passes, so that one pass slowed by another
# tenant of the host does not move them
MIN_PASSES = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> None:
    """Pin native thread pools to one thread and import stepopt from this checkout."""
    if not (SRC / "stepopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no stepopt sources under {SRC}")
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    os.environ.pop("STEPOPT_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def setup_only(workload: str, d: Path) -> None:
    """Child process: time the import of stepopt plus the workload's set-up files.

    The host-speed probe needs numpy, so numpy is imported before the
    clock starts; stepopt and scipy are imported inside the timed part.
    """
    from hostspeed import HostClock

    clock = HostClock()
    with clock.running():
        start = time.perf_counter()
        import workloads

        cmds = workloads.Commands()
        workloads.WORKLOADS[workload].setup(cmds, d)
        end = time.perf_counter()
    print(json.dumps({"setup_s": clock.scaled(start, end), "measured": end - start,
                      "failures": list(cmds.failures.values())}))


def measure_setup(workload: str) -> tuple[float, float, list[str]]:
    """Median set-up time over fresh processes, scaled and as measured."""
    from benchmath import median

    times, scaled, failures = [], [], []
    for i in range(SETUP_REPEATS):
        d = RUN_DIR / workload / f"setup-{i}"
        d.mkdir(parents=True)
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only", str(d)],
            capture_output=True, text=True, timeout=120, check=False)
        if child.returncode != 0:
            raise RuntimeError(f"set-up process failed: {child.stderr.strip()[-400:]}")
        report = json.loads(child.stdout.strip().splitlines()[-1])
        times.append(report["measured"])
        scaled.append(report["setup_s"])
        failures += report["failures"]
        shutil.rmtree(d)
    return median(scaled), median(times), failures


def run_passes(cmds, wl, d: Path, seed: int, seconds: float, tracer=None):
    """Repeat the pass until ``seconds`` and ``MIN_PASSES`` passes are measured.

    Checks stay untimed.  Returns the (start, end) times of each pass,
    the (start, end) times of the commands of each pass, and the checked
    outputs of the last pass.  With a tracer, passes alternate between
    untraced and traced (spans labelled ``pass-<i>``) until each side
    has ``seconds / 2``; the returned pass times are then
    ``(untraced, traced)``.
    """
    passes = ([], [])
    pass_commands = []
    checked = None
    elapsed = [0.0, 0.0]
    while True:
        traced = tracer is not None and elapsed[1] < elapsed[0]
        label = f"pass-{len(passes[traced]) + 1}" if traced else None
        first = len(cmds.intervals)
        with tracer.recording(label) if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            ops = wl.run_pass(cmds, d, seed)
            end = time.perf_counter()
        passes[traced].append((start, end))
        elapsed[traced] += end - start
        pass_commands.append(cmds.intervals[first:])
        checked = wl.check_pass(cmds, d, ops)
        if tracer is None and elapsed[0] >= seconds and len(passes[0]) >= MIN_PASSES:
            return passes[0], pass_commands, checked
        if tracer is not None and min(elapsed) >= seconds / 2:
            return passes, pass_commands, checked


def quality_metrics(groups) -> dict[str, float]:
    from benchmath import geometric_mean, spearman

    objective_ratio = geometric_mean(
        min(g.objectives) / min(o for o, opt in zip(g.objectives, g.optimized) if not opt)
        for g in groups)
    l2_ratio = geometric_mean(
        g.l2[g.objectives.index(min(g.objectives))] / g.l2[g.uniform_lambda] for g in groups)
    rank = sum(spearman(g.objectives, g.l2) for g in groups) / len(groups)
    return {"objective_ratio": objective_ratio, "l2_ratio": l2_ratio, "l2_rank_corr": rank}


def timing_metrics(passes, pass_commands, time_of) -> dict[str, float]:
    """Pass and command timings, each (start, end) interval timed by ``time_of``."""
    from benchmath import median, tail_percentile

    walls = [time_of(start, end) for start, end in passes]
    latencies = [[time_of(start, end) for start, end in pc] for pc in pass_commands]
    return {
        "wall_s": median(walls),
        "op_p50_s": median(x for pc in latencies for x in pc),
        "op_p90_s": median(tail_percentile(pc)[0] for pc in latencies),
        "ops_per_s": sum(map(len, latencies)) / sum(walls),
    }


def end_to_end(workload: str, seed: int, seconds: float, d: Path, lines: list[str]):
    import workloads
    from benchmath import drift, tail_percentile
    from hostspeed import REFERENCE_S, HostClock

    wl = workloads.WORKLOADS[workload]
    setup_s, setup_measured, setup_failures = measure_setup(workload)
    cmds = workloads.Commands()
    wl.setup(cmds, d)
    clock = HostClock()
    with clock.running():
        passes, pass_commands, checked = run_passes(cmds, wl, d, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    groups = wl.groups(cmds, d, checked, seed)
    ok = bool(groups) and not setup_failures
    metrics = timing_metrics(passes, pass_commands, clock.scaled)
    measured = timing_metrics(passes, pass_commands, lambda start, end: end - start)
    metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    if groups:
        metrics.update(quality_metrics(groups))
    probe_share = sum(clock.durations) / sum(end - start for start, end in passes)
    lines.append(f"host slowdown {clock.slowdown():.4f}: mean of {len(clock.durations)} probes "
                 f"{clock.slowdown() * REFERENCE_S * 1e3:.4f} ms against {REFERENCE_S * 1e3} ms; "
                 f"probes took {100 * probe_share:.2f} % of the passes")
    lines.append("as measured, before scaling: " + ", ".join(
        f"{k} {v:.6g}" for k, v in [("setup_s", setup_measured), *measured.items()]))
    walls = [end - start for start, end in passes]
    lines.append(f"passes: {len(walls)} in {sum(walls):.3f} s measured ("
                 + " ".join(f"{w:.3f}" for w in walls)
                 + f"); commands timed: {sum(map(len, pass_commands))}")
    _, fraction, n = tail_percentile(range(len(pass_commands[-1])))
    lines.append(f"op_p90_s is the median over passes of the p{100 * fraction:.1f} of the "
                 f"{n} command latencies of a pass"
                 + (" (10 or fewer: the maximum)" if fraction == 1.0 else ""))
    lines.append(f"quality groups: {len(groups)}")
    for g in groups if len(groups) <= len(workloads.OPTIMIZE_NS) else ():
        per_group = quality_metrics([g])
        lines.append(", ".join(f"{label}: objective {o:.6g} mean_l2 {l2:.6g}"
                               for label, o, l2 in zip(g.labels, g.objectives, g.l2)))
        lines.append("  " + " ".join(f"{k} {v:.4g}" for k, v in per_group.items()))
    if workload == "optimize":
        lines.append("converged flag of the optimized files: " + ", ".join(
            f"N={N} {sf.converged}" for N, sf in sorted(checked.items())))

    if wl.drift_values is not None:
        record = json.loads((HERE / "seed_record.json").read_text(encoding="utf-8"))[workload]
        value, where = drift(wl.drift_values(cmds, d), record)
        ok = ok and value <= workloads.DRIFT_TOLERANCE
        lines.append(f"output_drift = {value:.3g} (largest at {where or '-'}; "
                     f"tolerance {workloads.DRIFT_TOLERANCE:g})")
    if workload == "simulate":
        err = workloads.reference_error(d / "model.json", seed)
        ok = ok and err <= workloads.REFERENCE_TOLERANCE
        lines.append(f"ref_max_err = {err:.3g} over {workloads.ORACLE_DRAWS} draws "
                     f"(tolerance {workloads.REFERENCE_TOLERANCE:g})")
    return metrics, cmds, ok


def per_layer(workload: str, seed: int, seconds: float, d: Path, lines: list[str]):
    import workloads
    from benchmath import median
    from tracing import Tracer, installed, layer_metrics

    wl = workloads.WORKLOADS[workload]
    tracer = Tracer(workload)
    cmds = workloads.Commands(tracer=tracer)
    wl.setup(cmds, d)
    with installed(tracer):
        passes, _, _ = run_passes(cmds, wl, d, seed, seconds, tracer)
        plain, traced = ([b - a for a, b in side] for side in passes)
        metrics = layer_metrics(tracer, "pass-")
        probed = []
        for k, (supplies, call) in enumerate(workloads.probe_steps(cmds, workload, d, seed)):
            if all(m in metrics for m in supplies):
                continue
            with tracer.recording(f"probe-{k}"):
                call()
            found = layer_metrics(tracer, f"probe-{k}")
            for m in supplies:
                if m not in metrics and m in found:
                    metrics[m] = found[m]
                    probed.append(m)
    err = workloads.reference_error(d / "model.json", seed)
    metrics["simulator.ref_max_err"] = err
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    tracer.write(d.parent / "spans.jsonl")

    lines.append(f"untraced passes: {len(plain)}, median {median(plain):.4f} s; "
                 f"traced passes: {len(traced)}, median {median(traced):.4f} s")
    self_times = tracer.self_times("pass-")
    lines.append("self time per traced pass: " + ", ".join(
        f"{module} {t / len(traced):.4f} s" for module, t in sorted(self_times.items())))
    lines.append("from layer probes: " + (", ".join(probed) or "-"))
    lines.append(f"spans: {len(tracer.spans)} written to {d.parent / 'spans.jsonl'}")
    return metrics, cmds, err <= workloads.REFERENCE_TOLERANCE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("optimize", "simulate", "sweep"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    if args.setup_only is not None:
        setup_only(args.workload, args.setup_only)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    shutil.rmtree(RUN_DIR / args.workload, ignore_errors=True)
    d = RUN_DIR / args.workload / "work"
    d.mkdir(parents=True)
    lines: list[str] = []
    measure = per_layer if args.trace else end_to_end
    metrics, cmds, ok = measure(args.workload, args.seed, args.seconds, d, lines)

    metrics = {k: v for k, v in metrics.items() if math.isfinite(v)}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    ok = ok and not missing and not cmds.failures
    lines += [f"missing metric: {n}" for n in missing]
    lines += [f"failed: {why}" for why in list(cmds.failures.values())[:20]]
    result = {}
    for m in wanted:
        if m["name"] in metrics:
            result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
            lines.append(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    lines.append(f"commands attempted {cmds.attempted}, failed {len(cmds.failures)}")
    print("\n".join(lines))
    print(json.dumps({"correct": ok, "attempted": cmds.attempted, "failed": len(cmds.failures),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

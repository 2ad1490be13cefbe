"""The three benchmark workloads: what each pass runs and how its outputs are checked.

Load model: one caller issues ``stepopt`` commands in-process through
``stepopt.cli.main(argv)``, one after another (a closed loop with one
client).  The workload seed only changes ``--rng-seed`` and the draws of
the quality checks; the program never sees the seed itself.

``optimize``  best-of-3 optimization at N = 5, 10, 15 (vp-linear, order
              3, p = 1).  Spends its time in weights, objective and
              optimizer; the simulator is idle.
``simulate``  one comparison of the three vp-linear baselines at N = 10
              on the two-component mixture with 4096 draws.  Spends its
              time in the reference integration and the posterior mean.
``sweep``     baseline + dump-weights for every family x N in 4..40 x
              scheme, and one small single-Gaussian simulation per
              (family, N).  About 210 short commands: per-call overheads,
              the vp-cosine inverse and file I/O show here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from stepopt import cli, objective, optimizer, schedules, simulator, weights
from stepopt.schedule_file import ScheduleFile

MIXTURE = {"dim": 2, "components": [
    {"pi": 0.5, "mu": [2.0, 2.0], "s": 0.5},
    {"pi": 0.5, "mu": [-2.0, -2.0], "s": 0.5},
]}
GAUSSIAN = {"dim": 2, "components": [{"pi": 1.0, "mu": [1.0, -0.5], "s": 0.7}]}

FAMILIES = ("vp-linear", "vp-cosine", "ve-edm")
RANGES = {"vp-linear": (1.0, 1e-3), "vp-cosine": (0.992, 1e-3), "ve-edm": (80.0, 0.002)}
SCHEMES = ("uniform-t", "uniform-lambda", "edm")
OPTIMIZE_NS = (5, 10, 15)
SIMULATE_N = 10
SWEEP_NS = tuple(range(4, 41, 4))

# draws per simulate command, per workload; optimize simulates only in
# its untimed quality study
DRAWS = {"optimize": 1024, "simulate": 4096, "sweep": 256}
ORACLE_DRAWS = 24
RECORD_RNG_SEED = 0
RECORD_SIMULATE_DRAWS = 512
DRIFT_TOLERANCE = 1e-6
REFERENCE_TOLERANCE = 1e-8


@dataclass
class Op:
    index: int
    argv: list[str]
    stdout: str = ""


@dataclass
class Commands:
    """Issues stepopt commands in-process, one at a time, and keeps their outcomes."""

    tracer: object = None
    # (start, end) perf_counter times of each timed command
    intervals: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failures: dict[int, str] = field(default_factory=dict)

    def run(self, *argv, timed: bool = True) -> Op:
        op = Op(self.attempted, [str(a) for a in argv])
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        span = None
        if tracer is not None and tracer.label is not None:
            span = tracer.open("cli." + op.argv[0].replace("-", "_"))
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except Exception:  # a crash is a failed command; the run goes on
            code = "uncaught exception"
            err.write(traceback.format_exc())
        finally:
            end = time.perf_counter()
            if span is not None:
                tracer.close(span)
        if timed:
            self.intervals.append((start, end))
        op.stdout = out.getvalue()
        self.check(op, code == 0, f"exit {code}: {err.getvalue().strip()[-400:]}")
        return op

    def check(self, op: Op, ok: bool, why: str) -> bool:
        if not ok and op.index not in self.failures:
            self.failures[op.index] = f"{' '.join(op.argv)}: {why}"
        return ok


# -- output checks -----------------------------------------------------------

def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_schedule_file(cmds: Commands, op: Op, path: Path) -> ScheduleFile | None:
    """Parse a schedule file and require that it re-emits byte-identically."""
    try:
        text = path.read_text(encoding="utf-8")
        sf = ScheduleFile.parse(text)
    except (OSError, ValueError, KeyError) as exc:
        cmds.check(op, False, f"unreadable schedule file {path.name}: {exc}")
        return None
    cmds.check(op, sf.emit() == text, f"{path.name} does not re-emit byte-identically")
    cmds.check(op, _finite([sf.objective, *sf.lam, *sf.t]), f"{path.name} has non-finite values")
    return sf


def check_weight_table(cmds: Commands, op: Op, path: Path, sf: ScheduleFile) -> list[float]:
    """Flattened table; the weights of each step must sum to its exact exp-integral."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        anchor = float(payload["anchor"])
        steps = [[float(w) for _, w in s["weights"]] for s in payload["steps"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        cmds.check(op, False, f"unreadable weight table {path.name}: {exc}")
        return []
    flat = [anchor] + [w for ws in steps for w in ws]
    if not cmds.check(op, _finite(flat) and len(steps) == sf.N, f"bad weight table {path.name}"):
        return flat
    lam = sf.lam
    for n, ws in enumerate(steps, start=1):
        exact = math.exp(lam[n] - anchor) - math.exp(lam[n - 1] - anchor)
        scale = sum(abs(w) for w in ws) + abs(exact)
        if not cmds.check(op, abs(sum(ws) - exact) <= 1e-9 * scale,
                          f"{path.name} step {n}: weights sum to {sum(ws)!r}, not {exact!r}"):
            break
    return flat


def check_report(cmds: Commands, op: Op, path: Path, labels: list[str], draws: int) -> list[dict]:
    """The report's entries, which must list ``labels`` in order; [] if it fails a check."""
    try:
        reports = json.loads(path.read_text(encoding="utf-8"))["reports"]
        numbers = [float(r[k]) for r in reports for k in ("mean_l2", "median_l2")]
        ok = [r["label"] for r in reports] == labels
        ok = ok and all(int(r["seeds"]) == draws for r in reports)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        cmds.check(op, False, f"unreadable report {path.name}: {exc}")
        return []
    ok = ok and _finite(numbers) and min(numbers) >= 0
    return reports if cmds.check(op, ok, f"report {path.name} does not match its inputs") else []


def mean_l2(reports: list[dict]) -> list[float]:
    return [r["mean_l2"] for r in reports]


def report_values(reports: list[dict]) -> list[float]:
    return [v for r in reports for v in (r["mean_l2"], r["median_l2"])]


# -- shared helpers ----------------------------------------------------------

def write_model(path: Path, model: dict) -> None:
    path.write_text(json.dumps(model), encoding="utf-8")


def baseline(cmds: Commands, out: Path, scheme: str, family: str, N: int, *extra, timed=True) -> Op:
    return cmds.run("baseline", "--scheme", scheme, "--schedule", family, "--N", N,
                    "--order", "3", *extra, "--out", out, timed=timed)


def simulate(cmds: Commands, model: Path, steps, draws: int, rng_seed: int, out: Path, timed=True) -> Op:
    args = [a for p in steps for a in ("--steps", p)]
    return cmds.run("simulate", "--model", model, *args, "--seeds", draws,
                    "--rng-seed", rng_seed, "--out", out, timed=timed)


@dataclass
class Group:
    """Schedules simulated together: bound objectives against simulated mean L2."""

    labels: list[str]
    objectives: list[float]
    l2: list[float]
    optimized: list[bool]

    @property
    def uniform_lambda(self) -> int:
        return next(i for i, label in enumerate(self.labels) if "uniform-lambda" in label)


def file_values(sf: ScheduleFile) -> list[float]:
    return [sf.objective, *sf.lam, *sf.t]


# -- optimize ----------------------------------------------------------------

_OBJECTIVE_LINE = re.compile(r"objective (\S+) -> (\S+) ")


def setup_optimize(cmds: Commands, d: Path) -> None:
    write_model(d / "model.json", MIXTURE)
    for N in OPTIMIZE_NS:
        for scheme in SCHEMES:
            baseline(cmds, d / f"{scheme}-{N}.json", scheme, "vp-linear", N, "--p", "1", timed=False)


def pass_optimize(cmds: Commands, d: Path, rng_seed: int) -> list:
    ops = []
    for N in OPTIMIZE_NS:
        out = d / f"optimized-{N}.json"
        ops.append((N, cmds.run("optimize", "--init", "best-of-3", "--schedule", "vp-linear",
                                "--N", N, "--order", "3", "--p", "1", "--out", out), out))
    return ops


def check_optimize(cmds: Commands, d: Path, ops) -> dict:
    """Checks each optimized file; returns the files by N."""
    files = {}
    for N, op, out in ops:
        sf = check_schedule_file(cmds, op, out)
        match = _OBJECTIVE_LINE.search(op.stdout)
        if sf is None or not cmds.check(op, match is not None, "no objective line on stdout"):
            continue
        initial, final = float(match.group(1)), float(match.group(2))
        cmds.check(op, final <= initial, f"objective rose from {initial} to {final}")
        cmds.check(op, isinstance(sf.converged, bool), "optimized file lacks the converged flag")
        spec = objective.ObjectiveSpec(
            schedules.NoiseSchedule.from_name(sf.schedule_family), sf.N, sf.T, sf.eps,
            weights.OrderSchedule(tuple(sf.orders)), p=sf.p, polynomial_kind=sf.polynomial_kind)
        recomputed = objective.objective_value(spec, np.array(sf.lam[1:-1]))
        cmds.check(op, abs(recomputed - sf.objective) <= 1e-12 * abs(sf.objective),
                   f"file objective {sf.objective!r} but the grid evaluates to {recomputed!r}")
        best_baseline = min(ScheduleFile.read(d / f"{s}-{N}.json").objective for s in SCHEMES)
        cmds.check(op, sf.objective <= best_baseline * (1 + 1e-12),
                   f"optimized objective {sf.objective} above best baseline {best_baseline}")
        files[N] = sf
    return files


def quality_optimize(cmds: Commands, d: Path, files: dict, rng_seed: int) -> list[Group]:
    """Untimed: each N's optimized file beside its three baselines on the mixture."""
    groups = []
    for N, sf in sorted(files.items()):
        steps = [d / f"optimized-{N}.json"] + [d / f"{s}-{N}.json" for s in SCHEMES]
        out = d / f"quality-{N}.json"
        op = simulate(cmds, d / "model.json", steps, DRAWS["optimize"], rng_seed, out, timed=False)
        l2 = mean_l2(check_report(cmds, op, out, [p.stem for p in steps], DRAWS["optimize"]))
        if l2:
            objectives = [ScheduleFile.read(p).objective for p in steps]
            groups.append(Group([p.stem for p in steps], objectives, l2, [True, False, False, False]))
    return groups


# -- simulate ----------------------------------------------------------------

def setup_simulate(cmds: Commands, d: Path) -> None:
    write_model(d / "model.json", MIXTURE)
    for scheme in SCHEMES:
        baseline(cmds, d / f"{scheme}.json", scheme, "vp-linear", SIMULATE_N, "--p", "1", timed=False)


def pass_simulate(cmds: Commands, d: Path, rng_seed: int, draws: int = DRAWS["simulate"],
                  timed=True) -> list:
    steps = [d / f"{s}.json" for s in SCHEMES]
    out = d / "report.json"
    return [(simulate(cmds, d / "model.json", steps, draws, rng_seed, out, timed), steps, out)]


def check_simulate(cmds: Commands, d: Path, ops) -> list[Group]:
    groups = []
    for op, steps, out in ops:
        l2 = mean_l2(check_report(cmds, op, out, [p.stem for p in steps], DRAWS["simulate"]))
        files = [check_schedule_file(cmds, op, p) for p in steps]
        if l2 and all(files):
            groups.append(Group([p.stem for p in steps], [f.objective for f in files], l2,
                                [False] * len(steps)))
    return groups


def drift_values_simulate(cmds: Commands, d: Path) -> dict:
    """Outputs compared with the seed record: baseline files and a fixed-seed report."""
    ops = pass_simulate(cmds, d, RECORD_RNG_SEED, RECORD_SIMULATE_DRAWS, timed=False)
    values = {}
    for op, steps, out in ops:
        for p in steps:
            sf = check_schedule_file(cmds, op, p)
            if sf is not None:
                values[f"file:{p.stem}"] = file_values(sf)
        reports = check_report(cmds, op, out, [p.stem for p in steps], RECORD_SIMULATE_DRAWS)
        if reports:
            values[f"report:{out.stem}"] = report_values(reports)
    return values


# -- sweep -------------------------------------------------------------------

def setup_sweep(cmds: Commands, d: Path) -> None:
    write_model(d / "model.json", GAUSSIAN)


def _sweep_cases():
    for family in FAMILIES:
        for i, N in enumerate(SWEEP_NS):
            # alternate N values exercise the Taylor weights and p = 2
            extra = ("--kind", "taylor", "--p", "2") if i % 2 else ("--p", "1")
            yield family, N, extra


def pass_sweep(cmds: Commands, d: Path, rng_seed: int, timed=True) -> list:
    ops = []
    for family, N, extra in _sweep_cases():
        steps = []
        for scheme in SCHEMES:
            out = d / f"{family}-{N}-{scheme}.json"
            table = d / f"{family}-{N}-{scheme}.weights.json"
            ops.append(("file", baseline(cmds, out, scheme, family, N, *extra, timed=timed), out))
            ops.append(("weights", cmds.run("dump-weights", "--steps", out, "--out", table,
                                            timed=timed), (out, table)))
            steps.append(out)
        report = d / f"{family}-{N}.report.json"
        ops.append(("report", simulate(cmds, d / "model.json", steps, DRAWS["sweep"], rng_seed,
                                       report, timed), (steps, report)))
    return ops


def check_sweep(cmds: Commands, d: Path, ops, values: dict | None = None) -> list[Group]:
    groups, files = [], {}
    for kind, op, what in ops:
        if kind == "file":
            sf = check_schedule_file(cmds, op, what)
            if sf is not None:
                files[what] = sf
                if values is not None:
                    values[f"file:{what.stem}"] = file_values(sf)
        elif kind == "weights":
            sf = files.get(what[0])
            if sf is not None:
                flat = check_weight_table(cmds, op, what[1], sf)
                if values is not None:
                    values[f"weights:{what[1].stem}"] = flat
        else:
            steps, report = what
            reports = check_report(cmds, op, report, [p.stem for p in steps], DRAWS["sweep"])
            if reports and all(p in files for p in steps):
                groups.append(Group([p.stem for p in steps], [files[p].objective for p in steps],
                                    mean_l2(reports), [False] * len(steps)))
                if values is not None:
                    values[f"report:{report.stem}"] = report_values(reports)
    return groups


def drift_values_sweep(cmds: Commands, d: Path) -> dict:
    values: dict = {}
    check_sweep(cmds, d, pass_sweep(cmds, d, RECORD_RNG_SEED, timed=False), values)
    return values


# -- reference oracle ----------------------------------------------------------

def start_draws(model, family: str, count: int, rng_seed: int) -> np.ndarray:
    """Start states drawn the way ``evaluate_schedules`` draws them."""
    schedule = schedules.NoiseSchedule.from_name(family)
    T, _ = RANGES[family]
    alpha, sigma = (float(v) for v in schedule.alpha_sigma_of_lambda(schedule.lambda_of_t(T)))
    std = math.sqrt(alpha**2 * model.second_moment_per_dim() + sigma**2)
    return std * np.random.default_rng(rng_seed).standard_normal((count, model.dim))


def reference_error(model_path: Path, rng_seed: int, family: str = "vp-linear") -> float:
    """Largest L2 deviation of ``reference_solution`` from a per-draw DOP853 oracle.

    The oracle integrates the probability flow in the half log-SNR at
    rtol 1e-12, one draw at a time, using only the public
    ``alpha_sigma_of_lambda``, ``t_of_lambda`` and ``data_prediction``.
    """
    model = simulator.load_model(model_path)
    schedule = schedules.NoiseSchedule.from_name(family)
    T, eps = RANGES[family]
    x_T = start_draws(model, family, ORACLE_DRAWS, rng_seed)
    lam_T, lam_eps = float(schedule.lambda_of_t(T)), float(schedule.lambda_of_t(eps))

    def rhs(lam, x):
        alpha, sigma = (float(v) for v in schedule.alpha_sigma_of_lambda(lam))
        dlog_sigma = -1.0 if family == "ve-edm" else -alpha * alpha
        t = float(schedule.t_of_lambda(lam))
        return dlog_sigma * x + alpha * simulator.data_prediction(model, x, schedule, t)

    oracle = np.empty_like(x_T)
    for i, x0 in enumerate(x_T):
        sol = solve_ivp(rhs, (lam_T, lam_eps), x0, method="DOP853", rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"oracle integration failed: {sol.message}")
        oracle[i] = sol.y[:, -1]
    ref = simulator.reference_solution(model, schedule, x_T, T, eps)
    return float(np.max(np.linalg.norm(ref - oracle, axis=1)))


# -- layer probes (traced runs only) -----------------------------------------

def probe_steps(cmds: Commands, workload: str, d: Path, rng_seed: int):
    """Direct calls into each module's public functions, at this workload's sizes.

    A traced run takes each per-layer metric from the spans of its timed
    passes; a metric those passes do not produce (a private code path,
    or a module the workload does not use) is taken from these calls.
    Yields ``(metrics supplied, callable)``.
    """
    family = "vp-linear"
    sched = schedules.NoiseSchedule.from_name(family)
    T, eps = RANGES[family]
    N = SIMULATE_N
    orders = weights.OrderSchedule.warmup(N, 3)
    grid = schedules.uniform_lambda_grid(sched, N, T, eps)
    spec = objective.ObjectiveSpec(sched, N, T, eps, orders, p=1)
    draws = DRAWS[workload]
    model_path = d / "model.json"

    def grids():
        for fam in FAMILIES:
            s = schedules.NoiseSchedule.from_name(fam)
            for build in (schedules.uniform_t_grid, schedules.uniform_lambda_grid, schedules.edm_grid):
                for _ in range(3):
                    build(s, N, *RANGES[fam])

    def tables():
        for _ in range(20):
            weights.aggregate(weights.weights_lagrange(grid, orders), orders)

    def evaluations():
        x = np.array(grid.lam[1:-1])
        for _ in range(50):
            objective.objective_value(spec, x)
        for _ in range(10):
            objective.objective_gradient(spec, x)

    def optimize():
        small = objective.ObjectiveSpec(sched, 5, T, eps, weights.OrderSchedule.warmup(5, 3), p=1)
        optimizer.optimize_steps(small, optimizer.OptimizerConfig(init="uniform-lambda"))

    def simulation():
        model = simulator.load_model(model_path)
        x_T = start_draws(model, family, draws, rng_seed)
        simulator.reference_solution(model, sched, x_T, T, eps)
        t_mid = float(grid.t[N // 2])
        for _ in range(5):
            simulator.data_prediction(model, x_T, sched, t_mid)
        run = simulator.SamplerRun(grid, orders, "lagrange", model, sched, seeds=draws)
        for _ in range(3):
            simulator.multistep_sample(run, x_T)

    def evaluate():
        model = simulator.load_model(model_path)
        simulator.evaluate_schedules(model, sched, [grid], orders, "lagrange",
                                     seeds=draws, rng_seed=rng_seed)

    def files():
        path = d / "probe-file.json"
        sf = ScheduleFile.from_grid(grid, family, orders, "lagrange", 1, 1.0, init="uniform-lambda")
        for _ in range(20):
            sf.write(path)
            ScheduleFile.read(path)

    def command(name):
        def run():
            steps = [d / f"probe-{s}.json" for s in SCHEMES]
            with cmds.tracer.recording(None):  # inputs of the probed command
                for s, p in zip(SCHEMES, steps):
                    baseline(cmds, p, s, family, N, timed=False)
            if name == "baseline":
                baseline(cmds, d / "probe-baseline.json", "uniform-lambda", family, N, timed=False)
            elif name == "optimize":
                cmds.run("optimize", "--init", "best-of-3", "--schedule", family, "--N", 5,
                         "--order", "3", "--out", d / "probe-optimized.json", timed=False)
            elif name == "simulate":
                simulate(cmds, model_path, steps, 256, rng_seed, d / "probe-report.json",
                         timed=False)
            else:
                cmds.run("dump-weights", "--steps", steps[1], "--out", d / "probe-weights.json",
                         timed=False)
        return run

    yield (("schedules.t_of_lambda_us.vp_linear", "schedules.t_of_lambda_us.vp_cosine",
            "schedules.t_of_lambda_us.ve_edm", "schedules.lambda_of_t_us",
            "schedules.grid_us"), grids)
    yield (("weights.table_us", "weights.aggregate_us"), tables)
    yield (("objective.value_us", "objective.gradient_ms", "objective.score_error_weight_us"),
           evaluations)
    yield (("optimizer.run_s", "optimizer.iterations", "optimizer.accepted_steps",
            "optimizer.iter_ms", "optimizer.accept_ratio", "optimizer.objective_share",
            "optimizer.converged_share"), optimize)
    yield (("simulator.reference_s", "simulator.posterior_mean_us", "simulator.sampler_ms",
            "simulator.sampler_step_us"), simulation)
    yield (("simulator.evaluate_s",), evaluate)
    yield (("schedule_file.write_us", "schedule_file.read_us"), files)
    for name in ("baseline", "optimize", "simulate", "dump_weights"):
        yield ((f"cli.{name}_s",), command(name))


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (cmds, dir) -> None, untimed
    run_pass: Callable  # (cmds, dir, rng_seed) -> ops, timed
    check_pass: Callable  # (cmds, dir, ops) -> checked outputs, untimed
    groups: Callable  # (cmds, dir, checked outputs of the last pass, rng_seed) -> [Group]
    drift_values: Callable | None = None  # (cmds, dir) -> {output name: [numbers]}


WORKLOADS = {
    "optimize": Workload(setup_optimize, pass_optimize, check_optimize, quality_optimize),
    "simulate": Workload(setup_simulate, pass_simulate, check_simulate,
                         lambda cmds, d, groups, rng_seed: groups, drift_values_simulate),
    "sweep": Workload(setup_sweep, pass_sweep, check_sweep,
                      lambda cmds, d, groups, rng_seed: groups, drift_values_sweep),
}

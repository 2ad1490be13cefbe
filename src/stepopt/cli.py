"""Command-line interface.

Commands:

* ``baseline``     - write one of the three reference grids with its
  objective value,
* ``optimize``     - minimize the bound objective over interior nodes
  and write the optimized grid,
* ``simulate``     - compare schedule files on an analytic-score model
  against reference solutions,
* ``dump-weights`` - emit the solver weight table of a schedule file.

Exit codes: 0 on success, 1 on numeric failure, 2 on usage errors.
Usage errors are bad flags (an infeasible ``--margin`` among them), an
unwritable output and a missing or invalid input file; a ``--T`` or
``--eps`` outside the family's time domain is a numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from . import __version__
from .objective import PROXY_EXPONENTS, ObjectiveSpec, objective_value
from .optimizer import InfeasibleError, OptimizerConfig, optimize_steps
from .schedule_file import ScheduleFile, write_texts
from .schedules import PARAMETERS, SCHEDULE_NAMES, SCHEMES, DomainError, NoiseSchedule, scheme_grid
from .simulator import evaluate_schedules, load_model, non_finite_message
from .weights import POLYNOMIAL_KINDS, OrderSchedule, step_weight_array

__all__ = ["main", "entry_point"]


class UsageError(ValueError):
    """Bad flag combinations and inconsistent inputs (exit code 2)."""


def _int_at_least(lowest: int):
    """Flag type of an integer of at least ``lowest``, checked when the flags are parsed."""

    def integer(text: str) -> int:
        if int(text) < lowest:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lowest}, got {text!r}")
        return int(text)

    return integer


def _spec_from_args(args) -> ObjectiveSpec:
    """The objective the spec flags describe; a flag the library rejects is a usage error.

    A ``--T`` or ``--eps`` outside the family's time domain raises
    :class:`DomainError`, a numeric failure.
    """
    try:
        # a family flag is passed only when given, so the schedule keeps its default
        given = {name: value for name in PARAMETERS if (value := getattr(args, name)) is not None}
        schedule = NoiseSchedule.from_name(args.schedule, **given)
        if "," in args.order:
            orders = OrderSchedule(tuple(int(v) for v in args.order.split(",")))
        else:
            orders = OrderSchedule.warmup(args.N, int(args.order))
        T = args.T if args.T is not None else schedule.t_domain[1]
        eps = args.eps if args.eps is not None else schedule.default_eps
        return ObjectiveSpec(schedule, args.N, T, eps, orders, p=args.p, polynomial_kind=args.kind)
    except DomainError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read_input(read, path):
    """Read a schedule or model file; one that is missing or fails validation is bad input."""
    try:
        return read(path)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad input file {path}: {exc}") from None


# json.dump with indent runs json's pure-Python encoder, one write per
# token; the table's fixed layout is built here as the same text in one pass
_PAIR = "        [\n          %d,\n          %r\n        ]"
_STEP = '    {\n      "n": %d,\n      "weights": [\n%s\n      ]\n    }'
_TABLE = '{\n  "anchor": %r,\n  "steps": [\n%s\n  ]\n}\n'


def _weight_table(schedule_file: ScheduleFile) -> str:
    """The weight table, byte for byte as ``json.dumps(table, indent=2) + "\\n"`` gives it.

    Every weight is finite and every step has one at least, so floats
    print as ``repr`` and no list is empty.
    """
    lam = schedule_file.grid.lam
    anchor = float(lam[-1])
    w = step_weight_array(lam, schedule_file.spec.orders, schedule_file.polynomial_kind, anchor)
    steps = []
    for n, (k, row) in enumerate(zip(schedule_file.orders, w.tolist()), start=1):
        pairs = enumerate(row[k - 1 :: -1])
        steps.append(_STEP % (n, ",\n".join([_PAIR % pair for pair in pairs])))
    return _TABLE % (anchor, ",\n".join(steps))


def _write_schedule(args, spec: ObjectiveSpec, grid, objective: float, init: str,
                    converged: bool | None = None) -> None:
    """Write ``--out``, and ``--dump-weights`` when given, for a grid of ``spec``."""
    out = ScheduleFile._of_spec(spec, grid, objective, init, converged)
    outputs = [(args.out, out.emit())]
    if args.dump_weights:
        outputs.append((args.dump_weights, _weight_table(out)))
    write_texts(*outputs)


def _cmd_baseline(args) -> int:
    spec = _spec_from_args(args)
    grid = scheme_grid(args.scheme, spec.schedule, args.N, spec.T, spec.eps, args.rho)
    value = objective_value(spec, grid.lam[1:-1])
    _write_schedule(args, spec, grid, value, init=args.scheme)
    print(f"wrote {args.out}: {args.scheme} N={args.N} objective={value:.12g}")
    return 0


def _cmd_optimize(args) -> int:
    inits = SCHEMES if args.init == "best-of-3" else (args.init,)
    # flags first: the spec maps T and eps, where a domain error exits 1
    try:
        configs = [
            OptimizerConfig(init=init, rho=args.rho, margin=args.margin, max_iters=args.max_iters)
            for init in inits
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    spec = _spec_from_args(args)
    results = [(config.init, optimize_steps(spec, config)) for config in configs]
    init_name, best = min(results, key=lambda pair: pair[1].objective)
    _write_schedule(
        args, spec, best.grid, best.objective, init=init_name, converged=best.converged
    )
    total_time = sum(r.wall_time_seconds for _, r in results)
    print(
        f"wrote {args.out}: init={init_name} "
        f"objective {best.initial_objective:.12g} -> {best.objective:.12g} "
        f"in {best.iterations} iterations, {total_time:.3f} s"
    )
    if not best.converged:
        print(
            f"note: L-BFGS-B stopped ({best.message.strip()}) after {best.iterations} "
            f"iterations and {best.evaluations} objective calls",
            file=sys.stderr,
        )
    return 0


def _cmd_simulate(args) -> int:
    model = _read_input(load_model, args.model)
    files = [_read_input(ScheduleFile.read, p) for p in args.steps]
    first = files[0]
    # reading checked each file's end log-SNR values against its T and eps
    shared = {(f.spec.schedule, f.T, f.eps, f.spec.orders, f.polynomial_kind) for f in files}
    if len(shared) > 1:
        raise UsageError(
            "schedule files must share family and its parameters, T, eps, "
            "orders and polynomial kind"
        )
    labels = [Path(p).stem for p in args.steps]
    reports = evaluate_schedules(
        model,
        first.spec.schedule,
        [f.grid for f in files],
        first.spec.orders,
        first.polynomial_kind,
        seeds=args.seeds,
        rng_seed=args.rng_seed,
        labels=labels,
    )
    diverged = [
        non_finite_message(r.diverged_step, first.N, r.schedule_label)
        for r in reports
        if r.diverged_step is not None
    ]
    if diverged:
        raise FloatingPointError("; ".join(diverged))
    # each report's JSON entry and CSV row
    rows = [(r.schedule_label, f.N, r.mean_l2_error, r.median_l2_error)
            for f, r in zip(files, reports)]
    payload = {
        "model": str(args.model),
        "seeds": args.seeds,
        "rng_seed": args.rng_seed,
        "reports": [{"label": label, "mean_l2": mean, "median_l2": median, "seeds": args.seeds}
                    for label, _, mean, median in rows],
    }
    # an error beyond the float range fails the command (ValueError) rather than write Infinity
    outputs = [(args.out, json.dumps(payload, indent=2, allow_nan=False) + "\n")]
    if args.csv:
        table = io.StringIO()
        csv.writer(table).writerows([["label", "N", "mean_l2", "median_l2"]] + [
            [label, N, repr(mean), repr(median)] for label, N, mean, median in rows])
        outputs.append((args.csv, table.getvalue()))
    write_texts(*outputs)
    for r in reports:
        print(f"{r.schedule_label}: mean_l2={r.mean_l2_error:.6g} median_l2={r.median_l2_error:.6g}")
    return 0


def _cmd_dump_weights(args) -> int:
    write_texts((args.out, _weight_table(_read_input(ScheduleFile.read, args.steps))))
    print(f"wrote {args.out}")
    return 0


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schedule", choices=SCHEDULE_NAMES, required=True)
    p.add_argument("--N", type=_int_at_least(1), required=True, help="number of steps")
    p.add_argument("--T", type=float, default=None, help="start time (family default)")
    p.add_argument("--eps", type=float, default=None, help="end time (family default)")
    p.add_argument("--order", default="3", help="max order, or comma list k1,k2,...")
    p.add_argument("--p", type=int, default=ObjectiveSpec.p, choices=PROXY_EXPONENTS,
                   help="error-proxy exponent (1: pixel-space, 2: latent-space)")
    p.add_argument("--kind", choices=POLYNOMIAL_KINDS, default=ObjectiveSpec.polynomial_kind)
    p.add_argument("--rho", type=_int_at_least(1), default=OptimizerConfig.rho,
                   help="exponent of the edm scheme")
    for name in PARAMETERS:
        p.add_argument("--" + name.replace("_", "-"), type=float, default=None)
    p.add_argument("--out", required=True, help="output schedule JSON")
    p.add_argument("--dump-weights", default=None, help="also write the weight table JSON")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subparsers by command, built once and shared.

    Parsing leaves them unchanged, so repeated ``main`` calls in one
    process stay independent; callers must not add to them.
    """
    parser = argparse.ArgumentParser(
        prog="stepopt",
        description="Time-step schedule construction, optimization and validation "
        "for multistep exponential-integrator diffusion ODE solvers.",
    )
    parser.add_argument("--version", action="version", version=f"stepopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baseline", help="write a reference discretization")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    _add_spec_flags(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("optimize", help="minimize the bound objective over interior nodes")
    p.add_argument("--init", choices=SCHEMES + ("best-of-3",), default="best-of-3")
    p.add_argument("--margin", type=float, default=None, help="minimum log-SNR gap")
    p.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters)
    _add_spec_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="compare schedules on an analytic-score model")
    p.add_argument("--model", required=True, help="mixture model JSON")
    p.add_argument("--steps", action="append", required=True, help="schedule JSON (repeatable)")
    p.add_argument("--seeds", type=_int_at_least(1), default=256)
    p.add_argument("--rng-seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--csv", default=None, help="optional CSV table")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dump-weights", help="emit the weight table of a schedule file")
    p.add_argument("--steps", required=True, help="schedule JSON")
    p.add_argument("--out", required=True, help="output weight-table JSON")
    p.set_defaults(func=_cmd_dump_weights)

    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` as the full parser parses it; a known command's flags go to its subparser alone.

    The full parser takes the rest: no or an unknown command, a top-level
    flag, leftover arguments and ``--=...``, which only it finds ambiguous.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None and not any(a.startswith("--=") for a in argv):
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, InfeasibleError, OSError) as exc:
        # the flags alone make a margin infeasible or an output path unwritable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

"""Command-line interface.

Commands:

* ``baseline``     - write one of the three reference grids with its
  objective value,
* ``optimize``     - minimize the bound objective over interior nodes
  and write the optimized grid,
* ``simulate``     - compare schedule files on an analytic-score model
  against reference solutions,
* ``dump-weights`` - emit the solver weight table of a schedule file.

Exit codes: 0 on success, 1 on numeric failure, 2 on usage errors and
bad input files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .objective import PROXY_EXPONENTS, ConstraintViolationError, ObjectiveSpec, objective_value
from .optimizer import InfeasibleError, OptimizerConfig, optimize_steps
from .schedule_file import ScheduleFile
from .schedules import SCHEDULE_NAMES, SCHEMES, DomainError, NoiseSchedule, scheme_grid
from .simulator import evaluate_schedules, load_model
from .weights import (
    POLYNOMIAL_KINDS, OrderSchedule, check_order_cap, weights_lagrange, weights_taylor,
)

__all__ = ["main", "entry_point"]

# default end time per family; the default start time is the top of its domain
_DEFAULT_EPS = {"vp-linear": 1e-3, "vp-cosine": 1e-3, "ve-edm": 0.002}


class UsageError(ValueError):
    """Bad flag combinations and inconsistent inputs (exit code 2)."""


def _int_at_least(lowest: int):
    """Flag type of an integer of at least ``lowest``, checked when the flags are parsed."""

    def integer(text: str) -> int:
        if int(text) < lowest:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lowest}, got {text!r}")
        return int(text)

    return integer


def _schedule_from_args(args) -> NoiseSchedule:
    try:
        return NoiseSchedule.from_name(
            args.schedule,
            beta_min=args.beta_min,
            beta_max=args.beta_max,
            cosine_shift=args.cosine_shift,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _range_from_args(args, schedule: NoiseSchedule) -> tuple[float, float]:
    T = args.T if args.T is not None else schedule.t_domain[1]
    eps = args.eps if args.eps is not None else _DEFAULT_EPS[args.schedule]
    if not T > eps:
        raise UsageError(f"--T ({T}) must exceed --eps ({eps})")
    return T, eps


def _orders_from_args(args, N: int) -> OrderSchedule:
    text = args.order
    try:
        if "," in text:
            ks = tuple(int(v) for v in text.split(","))
            if len(ks) != N:
                raise ValueError(f"--order lists {len(ks)} entries but --N is {N}")
            orders = OrderSchedule(ks)
        else:
            orders = OrderSchedule.warmup(N, int(text))
        check_order_cap(orders, args.kind)
        return orders
    except ValueError as exc:
        raise UsageError(f"bad --order: {exc}") from None


def _read_input(read, path):
    """Read a schedule or model file; one that fails validation is bad input."""
    try:
        return read(path)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad input file {path}: {exc}") from None


def _dump_weight_table(schedule_file: ScheduleFile, path) -> None:
    grid = schedule_file.to_grid()
    orders = OrderSchedule(tuple(schedule_file.orders))
    build = weights_lagrange if schedule_file.polynomial_kind == "lagrange" else weights_taylor
    table = build(grid, orders)
    steps = []
    for n in range(1, grid.n_steps + 1):
        pairs = [[j, w] for j, w in enumerate(table.step_weights(n).tolist())]
        steps.append({"n": n, "weights": pairs})
    payload = {"anchor": table.scale_anchor, "steps": steps}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_baseline(args) -> int:
    schedule = _schedule_from_args(args)
    T, eps = _range_from_args(args, schedule)
    orders = _orders_from_args(args, args.N)
    grid = scheme_grid(args.scheme, schedule, args.N, T, eps, args.rho)
    spec = ObjectiveSpec(
        schedule, args.N, T, eps, orders, p=args.p, polynomial_kind=args.kind
    )
    value = objective_value(spec, grid.lam[1:-1])
    out = ScheduleFile.from_grid(
        grid, args.schedule, orders, args.kind, args.p, value, init=args.scheme
    )
    out.write(args.out)
    if args.dump_weights:
        _dump_weight_table(out, args.dump_weights)
    print(f"wrote {args.out}: {args.scheme} N={args.N} objective={value:.12g}")
    return 0


def _cmd_optimize(args) -> int:
    schedule = _schedule_from_args(args)
    T, eps = _range_from_args(args, schedule)
    orders = _orders_from_args(args, args.N)
    inits = SCHEMES if args.init == "best-of-3" else (args.init,)
    # flags first: the spec maps T and eps, where a domain error exits 1
    try:
        configs = [
            OptimizerConfig(
                init=init,
                rho=args.rho,
                margin=args.margin,
                max_iters=args.max_iters,
            )
            for init in inits
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    spec = ObjectiveSpec(
        schedule, args.N, T, eps, orders, p=args.p, polynomial_kind=args.kind
    )
    results = [(config.init, optimize_steps(spec, config)) for config in configs]
    init_name, best = min(results, key=lambda pair: pair[1].objective)
    out = ScheduleFile.from_grid(
        best.grid,
        args.schedule,
        orders,
        args.kind,
        args.p,
        best.objective,
        init=init_name,
        converged=best.converged,
    )
    out.write(args.out)
    if args.dump_weights:
        _dump_weight_table(out, args.dump_weights)
    total_time = sum(r.wall_time_seconds for _, r in results)
    print(
        f"wrote {args.out}: init={init_name} "
        f"objective {best.initial_objective:.12g} -> {best.objective:.12g} "
        f"in {best.iterations} iterations, {total_time:.3f} s"
    )
    if not best.converged:
        print("note: stopped before reaching the stationarity tolerance", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    model = _read_input(load_model, args.model)
    files = [_read_input(ScheduleFile.read, p) for p in args.steps]
    first = files[0]
    for f in files[1:]:
        if (f.T, f.eps) != (first.T, first.eps) or f.schedule_family != first.schedule_family:
            raise UsageError("schedule files must share family, T and eps")
        if f.orders != first.orders or f.polynomial_kind != first.polynomial_kind:
            raise UsageError("schedule files must share orders and polynomial kind")
    schedule = NoiseSchedule.from_name(first.schedule_family)
    grids = [f.to_grid() for f in files]
    labels = [Path(p).stem for p in args.steps]
    orders = OrderSchedule(tuple(first.orders))
    reports = evaluate_schedules(
        model,
        schedule,
        grids,
        orders,
        first.polynomial_kind,
        seeds=args.seeds,
        rng_seed=args.rng_seed,
        labels=labels,
    )
    payload = {
        "model": str(args.model),
        "seeds": args.seeds,
        "rng_seed": args.rng_seed,
        "reports": [r.to_dict() for r in reports],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "N", "mean_l2", "median_l2"])
            for f, r in zip(files, reports):
                writer.writerow(
                    [r.schedule_label, f.N, repr(r.mean_l2_error), repr(r.median_l2_error)]
                )
    for r in reports:
        print(f"{r.schedule_label}: mean_l2={r.mean_l2_error:.6g} median_l2={r.median_l2_error:.6g}")
    return 0


def _cmd_dump_weights(args) -> int:
    _dump_weight_table(_read_input(ScheduleFile.read, args.steps), args.out)
    print(f"wrote {args.out}")
    return 0


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schedule", choices=SCHEDULE_NAMES, required=True)
    p.add_argument("--N", type=int, required=True, help="number of steps")
    p.add_argument("--T", type=float, default=None, help="start time (family default)")
    p.add_argument("--eps", type=float, default=None, help="end time (family default)")
    p.add_argument("--order", default="3", help="max order, or comma list k1,k2,...")
    p.add_argument("--p", type=int, default=1, choices=PROXY_EXPONENTS,
                   help="error-proxy exponent (1: pixel-space, 2: latent-space)")
    p.add_argument("--kind", choices=POLYNOMIAL_KINDS, default="lagrange")
    p.add_argument("--rho", type=_int_at_least(1), default=7, help="exponent of the edm scheme")
    p.add_argument("--beta-min", type=float, default=0.1)
    p.add_argument("--beta-max", type=float, default=20.0)
    p.add_argument("--cosine-shift", type=float, default=0.008)
    p.add_argument("--out", required=True, help="output schedule JSON")
    p.add_argument("--dump-weights", default=None, help="also write the weight table JSON")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones.

    Parsing leaves the parser unchanged, so repeated ``main`` calls in one
    process stay independent; callers must not add to it.
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
    p.add_argument("--max-iters", type=int, default=500)
    _add_spec_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="compare schedules on an analytic-score model")
    p.add_argument("--model", required=True, help="mixture model JSON")
    p.add_argument("--steps", action="append", required=True, help="schedule JSON (repeatable)")
    p.add_argument("--seeds", type=int, default=256)
    p.add_argument("--rng-seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--csv", default=None, help="optional CSV table")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dump-weights", help="emit the weight table of a schedule file")
    p.add_argument("--steps", required=True, help="schedule JSON")
    p.add_argument("--out", required=True, help="output weight-table JSON")
    p.set_defaults(func=_cmd_dump_weights)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: bad input file: {exc}", file=sys.stderr)
        return 2
    except (
        DomainError,
        ConstraintViolationError,
        InfeasibleError,
        OverflowError,
        FloatingPointError,
        RuntimeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

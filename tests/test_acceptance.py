"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Criteria with runtime ceilings assert their own wall
time.  The determinism criterion reruns earlier experiments, so it must
execute after them (pytest's default in-file order does this).
"""

import math
import time

import numpy as np
import pytest
from helpers import basis_order, gauss_legendre_oracle, grid_from_lambda

from stepopt.objective import ObjectiveSpec, objective_value
from stepopt.optimizer import OptimizerConfig, optimize_steps
from stepopt.schedules import (
    NoiseSchedule,
    edm_grid,
    uniform_lambda_grid,
    uniform_t_grid,
)
from stepopt.simulator import (
    AnalyticModel,
    evaluate_schedules,
    standard_test_mixture,
)
from stepopt.simulator import _reference_batch, _sample_batch
from stepopt.weights import (
    OrderSchedule,
    step_weight_array,
    weights_lagrange,
    weights_taylor,
)

VE = NoiseSchedule.from_name("ve-edm")
VP = NoiseSchedule.from_name("vp-linear")

_RESULTS: dict = {}


def _report(criterion, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _optimize_best_of_three(spec):
    return min(
        (
            optimize_steps(spec, OptimizerConfig(init=init))
            for init in ("uniform-t", "uniform-lambda", "edm")
        ),
        key=lambda r: r.objective,
    )


def test_criterion_1_weight_sum_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        N = int(rng.integers(1, 21))
        lam = np.sort(rng.uniform(-6.0, 7.0, N + 1))
        while np.any(np.diff(lam) < 1e-3):
            lam = np.sort(rng.uniform(-6.0, 7.0, N + 1))
        grid = grid_from_lambda(lam)
        for build, cap in ((weights_lagrange, 4), (weights_taylor, 3)):
            orders = OrderSchedule(
                tuple(int(rng.integers(1, min(n, cap) + 1)) for n in range(1, N + 1))
            )
            w = build(grid, orders)
            for n in range(1, N + 1):
                total = math.fsum(basis_order(w, orders, n))
                expect = math.exp(lam[n] - lam[-1]) - math.exp(lam[n - 1] - lam[-1])
                worst = max(worst, abs(total - expect) / abs(expect))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(1, ok, f"weight sums match exp differences (worst rel {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_2_quadrature_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        deg = int(rng.integers(0, 4))
        coeffs = rng.uniform(-2.0, 2.0, deg + 1)
        a = rng.uniform(-8.0, 8.0)
        width = math.exp(rng.uniform(math.log(1e-4), math.log(5.0)))
        # the last step, with deg earlier nodes spaced by the width, integrates p exactly;
        # its row is by age, so reversed it lines up with lam[:-1]
        lam = a + width * np.arange(-deg, 2.0)
        orders = OrderSchedule.warmup(deg + 1, deg + 1)
        w = step_weight_array(lam, orders, "lagrange", a)[-1, ::-1]
        mine = float(w @ np.polynomial.polynomial.polyval(lam[:-1], coeffs))
        oracle = gauss_legendre_oracle(coeffs, a, a + width, shift=a)
        worst = max(worst, abs(mine - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(2, ok, f"matches 64-point quadrature (worst rel {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_3_closed_form_optimum():
    start = time.perf_counter()
    spec = ObjectiveSpec(VE, 2, 80.0, 0.002, OrderSchedule((1, 1)), p=1)
    result = optimize_steps(spec, OptimizerConfig(init="uniform-t"))
    lam_T, lam_eps = spec.lambda_endpoints
    err = abs(result.grid.lam[1] - 0.5 * (lam_T + lam_eps))
    elapsed = time.perf_counter() - start
    _RESULTS["criterion3"] = result.grid.lam.copy()
    ok = err < 1e-6 and elapsed < 1.0
    _report(3, ok, f"midpoint optimum within {err:.2e} ({elapsed:.2f} s)")


def test_criterion_4_bound_level_improvement():
    start = time.perf_counter()
    details = []
    outputs = {}
    ok = True
    for N in (5, 8, 10):
        orders = OrderSchedule.warmup(N, 3)
        spec = ObjectiveSpec(VP, N, 1.0, 1e-3, orders, p=1)
        baselines = {
            "uniform-t": objective_value(spec, uniform_t_grid(VP, N, 1.0, 1e-3).lam[1:-1]),
            "uniform-lambda": objective_value(
                spec, uniform_lambda_grid(VP, N, 1.0, 1e-3).lam[1:-1]
            ),
            "edm": objective_value(spec, edm_grid(VP, N, 1.0, 1e-3, 7).lam[1:-1]),
        }
        best = _optimize_best_of_three(spec)
        outputs[N] = (best.grid.lam.copy(), best.objective)
        ok = ok and all(best.objective < v for v in baselines.values())
        details.append(f"N={N}: {best.objective:.4g} < {min(baselines.values()):.4g}")
    elapsed = time.perf_counter() - start
    _RESULTS["criterion4"] = outputs
    ok = ok and elapsed < 30.0
    _report(4, ok, f"optimized below all baselines ({'; '.join(details)}; {elapsed:.1f} s)")


def test_criterion_5_runtime_ceiling():
    spec = ObjectiveSpec(VP, 15, 1.0, 1e-3, OrderSchedule.warmup(15, 3), p=1)
    start = time.perf_counter()
    result = _optimize_best_of_three(spec)
    elapsed = time.perf_counter() - start
    ok = elapsed <= 15.0 and result.objective <= result.initial_objective
    _report(5, ok, f"15-step optimization took {elapsed:.2f} s (ceiling 15 s)")


def test_criterion_6_constant_prediction_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(1, 16))
        lam_T, lam_eps = -4.3, 6.2
        interior = np.sort(rng.uniform(lam_T + 0.01, lam_eps - 0.01, N - 1))
        lam = np.concatenate(([lam_T], interior, [lam_eps]))
        while np.any(np.diff(lam) < 1e-4):
            interior = np.sort(rng.uniform(lam_T + 0.01, lam_eps - 0.01, N - 1))
            lam = np.concatenate(([lam_T], interior, [lam_eps]))
        grid = grid_from_lambda(lam)
        orders = OrderSchedule(
            tuple(int(rng.integers(1, min(n, 4) + 1)) for n in range(1, N + 1))
        )
        c = rng.normal(size=(1, 2))
        x_T = rng.normal(size=(1, 2))
        out = _sample_batch(
            grid.lam[None],
            orders,
            "lagrange",
            VE,
            lambda x, a, s: np.broadcast_to(c.T[:, None], x.shape),
            x_T.T[:, None],
        )[0][:, 0].T
        closed = math.exp(lam_T - lam_eps) * x_T + math.exp(-lam_eps) * (
            math.exp(lam_eps) - math.exp(lam_T)
        ) * c
        worst = max(worst, float(np.max(np.abs(out - closed)) / np.max(np.abs(closed))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(6, ok, f"constant predictions reproduce closed form (worst rel {worst:.2e}, {elapsed:.2f} s)")


def _standard_mixture_experiment(seeds=4096, rng_seed=2024):
    N, T, eps = 5, 1.0, 1e-3
    orders = OrderSchedule.warmup(N, 3)
    spec = ObjectiveSpec(VP, N, T, eps, orders, p=1)
    best = _optimize_best_of_three(spec)
    grids = [
        best.grid,
        uniform_t_grid(VP, N, T, eps),
        uniform_lambda_grid(VP, N, T, eps),
        edm_grid(VP, N, T, eps, 7),
    ]
    labels = ["optimized", "uniform-t", "uniform-lambda", "edm"]
    reports = evaluate_schedules(
        standard_test_mixture(), VP, grids, orders, "lagrange",
        seeds=seeds, rng_seed=rng_seed, labels=labels,
    )
    return best, grids, reports


def test_criterion_7_desk_scale_improvement():
    start = time.perf_counter()
    best, grids, reports = _standard_mixture_experiment()
    means = {r.schedule_label: r.mean_l2_error for r in reports}
    main_win = all(means["optimized"] < means[k] for k in ("uniform-t", "uniform-lambda", "edm"))

    # sweep over randomly generated mixtures with the same schedules
    orders = OrderSchedule.warmup(5, 3)
    gen = np.random.default_rng(777)
    wins = 0
    for trial in range(20):
        K = int(gen.integers(1, 4))
        model = AnalyticModel(
            pis=gen.dirichlet(np.ones(K)),
            mus=gen.uniform(-3.0, 3.0, size=(K, 2)),
            stds=gen.uniform(0.3, 1.0, size=K),
        )
        reps = evaluate_schedules(
            model, VP, grids, orders, "lagrange", seeds=1024, rng_seed=trial
        )
        optimized = reps[0].mean_l2_error
        best_baseline = min(r.mean_l2_error for r in reps[1:])
        wins += optimized <= 1.01 * best_baseline
    elapsed = time.perf_counter() - start
    _RESULTS["criterion7"] = reports[0].per_seed_errors.copy()
    ok = main_win and wins >= 16 and elapsed < 300.0
    _report(
        7,
        ok,
        f"optimized mean {means['optimized']:.4f} beats baselines "
        f"(best {min(v for k, v in means.items() if k != 'optimized'):.4f}); "
        f"random mixtures {wins}/20 wins ({elapsed:.1f} s)",
    )


def test_criterion_8_convergence_and_order_properties():
    start = time.perf_counter()
    problems = []

    # order consistency on a single Gaussian
    gauss = AnalyticModel(
        pis=np.array([1.0]), mus=np.array([[1.5, -0.5]]), stds=np.array([0.7])
    )
    N = 8
    grid = uniform_lambda_grid(VE, N, 80.0, 0.002)
    order_means = {}
    for max_order in (1, 2, 3):
        rep = evaluate_schedules(
            gauss, VE, [grid], OrderSchedule.warmup(N, max_order), "lagrange",
            seeds=256, rng_seed=1008,
        )[0]
        order_means[max_order] = rep.mean_l2_error
    if not order_means[1] >= order_means[2] >= order_means[3]:
        problems.append(f"order consistency {order_means}")

    # convergence in N on the standard mixture
    model = standard_test_mixture()
    means = []
    for N in (5, 10, 20, 40):
        rep = evaluate_schedules(
            model, VP, [uniform_lambda_grid(VP, N, 1.0, 1e-3)],
            OrderSchedule.warmup(N, 3), "lagrange", seeds=512, rng_seed=1008,
        )[0]
        means.append(rep.mean_l2_error)
    if not all(b < a for a, b in zip(means, means[1:])):
        problems.append(f"convergence in N {means}")

    # closed-form and adaptive references agree
    rng = np.random.default_rng(1008)
    x_T = rng.normal(size=(8, 2)) * 1.2
    lam_T, lam_eps = float(VP.lambda_of_t(1.0)), float(VP.lambda_of_t(1e-3))
    closed = _reference_batch(gauss, VP, x_T.T, lam_T, lam_eps)
    split = AnalyticModel(
        pis=np.array([0.5, 0.5]),
        mus=np.array([[1.5, -0.5], [1.5, -0.5]]),
        stds=np.array([0.7, 0.7]),
    )
    adaptive = _reference_batch(split, VP, x_T.T, lam_T, lam_eps)
    gap = float(np.max(np.abs(closed - adaptive)))
    if gap > 1e-8:
        problems.append(f"reference cross-check gap {gap:.2e}")

    # reproducibility
    a = evaluate_schedules(model, VP, [uniform_lambda_grid(VP, 5, 1.0, 1e-3)],
                           OrderSchedule.warmup(5, 3), "lagrange", 64, 7)[0]
    b = evaluate_schedules(model, VP, [uniform_lambda_grid(VP, 5, 1.0, 1e-3)],
                           OrderSchedule.warmup(5, 3), "lagrange", 64, 7)[0]
    if not np.array_equal(a.per_seed_errors, b.per_seed_errors):
        problems.append("reports not reproducible")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 300.0
    _report(8, ok, f"order/convergence/reference invariants hold ({elapsed:.1f} s)"
            + (f" problems: {problems}" if problems else ""))


def test_criterion_9_determinism():
    for key in ("criterion3", "criterion4", "criterion7"):
        if key not in _RESULTS:
            pytest.skip(f"{key} did not run")

    spec3 = ObjectiveSpec(VE, 2, 80.0, 0.002, OrderSchedule((1, 1)), p=1)
    rerun3 = optimize_steps(spec3, OptimizerConfig(init="uniform-t"))
    same3 = np.array_equal(rerun3.grid.lam, _RESULTS["criterion3"])

    same4 = True
    for N, (lam, value) in _RESULTS["criterion4"].items():
        spec = ObjectiveSpec(VP, N, 1.0, 1e-3, OrderSchedule.warmup(N, 3), p=1)
        best = _optimize_best_of_three(spec)
        same4 = same4 and np.array_equal(best.grid.lam, lam) and best.objective == value

    _, _, reports = _standard_mixture_experiment()
    same7 = np.array_equal(reports[0].per_seed_errors, _RESULTS["criterion7"])

    ok = same3 and same4 and same7
    _report(9, ok, f"reruns bitwise identical (3: {same3}, 4: {same4}, 7: {same7})")

import math

import numpy as np
import pytest

from stepopt.objective import (
    ConstraintViolationError,
    ObjectiveSpec,
    _evaluate,
    objective_gradient,
    objective_value,
    score_error_weight,
)
from stepopt.schedules import DomainError, NoiseSchedule
from stepopt.weights import OrderSchedule, aggregate, step_weight_array

VE = NoiseSchedule.from_name("ve-edm")
VP = NoiseSchedule.from_name("vp-linear")


def make_spec(schedule, N, T, eps, max_order=1, **kw):
    return ObjectiveSpec(
        schedule, N, T, eps, OrderSchedule.warmup(N, max_order), **kw
    )


def exact_bound(spec, interior, anchor):
    """The unsmoothed objective, through the public weights API at the given anchor."""
    full = np.concatenate(([spec.lambda_endpoints[0]], interior, [spec.lambda_endpoints[1]]))
    agg = aggregate(step_weight_array(full, spec.orders, "lagrange", anchor), spec.orders)
    return float(np.sum(score_error_weight(spec.schedule, full[:-1], spec.p) * agg))


class TestScoreErrorWeight:
    def test_vp_balanced_point(self):
        assert float(score_error_weight(VP, 0.0, 1)) == pytest.approx(1.0, rel=1e-14)

    def test_vp_p2(self):
        # sigma^2 / alpha = (1/2) / (1/sqrt 2)
        assert float(score_error_weight(VP, 0.0, 2)) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-14
        )

    def test_ve(self):
        assert float(score_error_weight(VE, 2.0, 1)) == pytest.approx(
            math.exp(-2.0), rel=1e-14
        )

    def test_matches_time_route(self):
        rng = np.random.default_rng(2)
        for schedule, lo, hi in [(VP, 1e-4, 1.0), (VE, 0.002, 80.0)]:
            t = rng.uniform(lo, hi, 50)
            lam = schedule.lambda_of_t(t)
            # alpha and sigma from t itself: 1 and t on ve-edm
            if schedule is VE:
                alpha, sigma = np.ones_like(t), t
            else:
                log_alpha = schedule._log_alpha(t)
                alpha, sigma = np.exp(log_alpha), np.sqrt(-np.expm1(2.0 * log_alpha))
            for p in (0, 1, 2, 3):
                direct = score_error_weight(schedule, lam, p)
                via_t = sigma ** p / alpha
                np.testing.assert_allclose(direct, via_t, rtol=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            score_error_weight(VE, 50.0, 1)

    @pytest.mark.parametrize("schedule", [VP, VE], ids=["vp", "ve"])
    def test_nan_is_a_domain_error(self, schedule):
        # NaN fails every comparison, so a check that looks for out-of-range values lets it through
        with pytest.raises(DomainError):
            score_error_weight(schedule, np.nan, 1)
        with pytest.raises(DomainError):
            score_error_weight(schedule, np.array([0.0, np.nan]), 1)


class TestObjectiveValue:
    def test_single_step_closed_form(self):
        spec = make_spec(VE, 1, 80.0, 0.002)
        lam_T, lam_eps = spec.lambda_endpoints
        expect = (
            score_error_weight(VE, lam_T, 1)
            * (math.exp(lam_eps) - math.exp(lam_T))
            * math.exp(-lam_eps)
        )
        assert objective_value(spec, np.empty(0)) == pytest.approx(expect, rel=1e-12)

    def test_ve_all_first_order_closed_form(self):
        # each term reduces to exp(gap) - 1, up to the anchor factor
        spec = make_spec(VE, 4, 80.0, 0.002)
        lam_T, lam_eps = spec.lambda_endpoints
        interior = np.array([-2.0, 0.5, 3.1])
        full = np.concatenate(([lam_T], interior, [lam_eps]))
        expect = math.exp(-lam_eps) * math.fsum(
            math.exp(h) - 1.0 for h in np.diff(full)
        )
        assert objective_value(spec, interior) == pytest.approx(expect, rel=1e-12)

    def test_non_monotone_raises(self):
        spec = make_spec(VE, 3, 80.0, 0.002)
        with pytest.raises(ConstraintViolationError):
            objective_value(spec, np.array([3.0, -2.0]))

    def test_outside_endpoints_raises(self):
        spec = make_spec(VE, 2, 80.0, 0.002)
        with pytest.raises(ConstraintViolationError):
            objective_value(spec, np.array([-10.0]))

    def test_strictly_positive(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            N = int(rng.integers(1, 12))
            spec = ObjectiveSpec(
                VP,
                N,
                1.0,
                1e-3,
                OrderSchedule(
                    tuple(int(rng.integers(1, min(n, 4) + 1)) for n in range(1, N + 1))
                ),
                p=int(rng.integers(0, 4)),
            )
            lam_T, lam_eps = spec.lambda_endpoints
            interior = np.sort(rng.uniform(lam_T + 1e-3, lam_eps - 1e-3, N - 1))
            while np.any(np.diff(np.concatenate(([lam_T], interior, [lam_eps]))) < 1e-4):
                interior = np.sort(rng.uniform(lam_T + 1e-3, lam_eps - 1e-3, N - 1))
            assert objective_value(spec, interior) > 0.0

    def test_anchor_invariance_of_ratios(self):
        # the anchor multiplies the whole objective by one constant, so
        # ratios of values at two points do not depend on it
        spec = make_spec(VP, 5, 1.0, 1e-3, max_order=3)
        lam_T, lam_eps = spec.lambda_endpoints
        rng = np.random.default_rng(4)
        xs = []
        for _ in range(2):
            interior = np.sort(rng.uniform(lam_T + 0.2, lam_eps - 0.2, 4))
            xs.append(interior)
        v = [objective_value(spec, x) for x in xs]
        ratio_default = v[0] / v[1]

        # recompute with a different anchor through the public weights API
        ratio_other = exact_bound(spec, xs[0], 0.0) / exact_bound(spec, xs[1], 0.0)
        assert ratio_other == pytest.approx(ratio_default, rel=1e-12)

    def test_smoothing_bias_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            N = int(rng.integers(2, 10))
            orders = OrderSchedule.warmup(N, 3)
            spec = ObjectiveSpec(VP, N, 1.0, 1e-3, orders, p=1)
            lam_T, lam_eps = spec.lambda_endpoints
            interior = np.linspace(lam_T, lam_eps, N + 1)[1:-1]
            interior += rng.uniform(-0.1, 0.1, N - 1) * (lam_eps - lam_T) / N
            v0 = exact_bound(spec, interior, lam_eps)  # the objective's anchor
            v1 = objective_value(spec, interior)
            max_factor = float(
                np.max(score_error_weight(VP, np.concatenate(([lam_T], interior)), 1))
            )
            assert abs(v1 - v0) <= N * 1e-10 * max_factor + 1e-300

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_spec(VE, 2, 0.002, 80.0)  # T < eps
        with pytest.raises(ValueError):
            make_spec(VE, 2, 80.0, 0.002, p=5)
        with pytest.raises(ValueError):
            ObjectiveSpec(VE, 3, 80.0, 0.002, OrderSchedule((1, 1)))


class TestObjectiveGradient:
    def test_stationary_at_midpoint(self):
        spec = make_spec(VE, 2, 80.0, 0.002)
        lam_T, lam_eps = spec.lambda_endpoints
        _, g = objective_gradient(spec, np.array([0.5 * (lam_T + lam_eps)]))
        # at the closed-form stationary point both exponential terms match
        assert abs(g[0]) < 1e-8

    def test_matches_richardson_oracle(self):
        rng = np.random.default_rng(9)
        for schedule, T, eps in [(VP, 1.0, 1e-3), (VE, 80.0, 0.002)]:
            spec = make_spec(schedule, 5, T, eps, max_order=3)
            lam_T, lam_eps = spec.lambda_endpoints
            for _ in range(5):
                interior = np.sort(rng.uniform(lam_T + 0.3, lam_eps - 0.3, 4))
                if np.any(np.diff(np.concatenate(([lam_T], interior, [lam_eps]))) < 0.05):
                    continue
                _, g = objective_gradient(spec, interior)
                oracle = _richardson_gradient(spec, interior)
                np.testing.assert_allclose(
                    g, oracle, rtol=1e-4, atol=1e-10 * max(1.0, np.max(np.abs(oracle)))
                )

    def test_empty_for_single_step(self):
        spec = make_spec(VE, 1, 80.0, 0.002)
        value, g = objective_gradient(spec, np.empty(0))
        assert g.size == 0
        assert value == objective_value(spec, np.empty(0))

    def test_close_nodes_keep_perturbed_rows_increasing(self, monkeypatch):
        # steps are capped at half the nearer gap, so nodes far closer than
        # two uncapped steps still get a finite gradient from feasible grids
        from stepopt import objective

        tables = []
        perturbed_table = objective._perturbed_table

        def recorded(lam_full):
            steps, table = perturbed_table(lam_full)
            tables.append(table)
            return steps, table

        monkeypatch.setattr(objective, "_perturbed_table", recorded)
        ve = make_spec(VE, 3, 80.0, 0.002)
        deep = make_spec(VP, 4, 1.0, 1e-300, max_order=3)  # lambda_eps about 346
        cases = [
            (ve, np.array([ve.lambda_endpoints[0] + 1e-8, ve.lambda_endpoints[1] - 1.0])),
            (deep, deep.lambda_endpoints[1] - np.array([3e-4, 2e-4, 1e-4])),
        ]
        for spec, interior in cases:
            tables.clear()
            _, g = objective_gradient(spec, interior)
            (table,) = tables
            points = table[objective._gradient_plan(spec.orders)[0]]
            assert points.shape == (2 * spec.N - 1, spec.N + 1)
            assert np.all(np.diff(points, axis=-1) > 0)
            assert np.all(np.isfinite(g))

    @pytest.mark.parametrize("kind,cap", [("lagrange", 1), ("lagrange", 2), ("lagrange", 3),
                                          ("lagrange", 4), ("taylor", 1), ("taylor", 2),
                                          ("taylor", 3)])
    def test_windows_match_whole_stack_bitwise(self, kind, cap):
        # the distinct step windows give the value and gradient that one
        # evaluation of every finite-difference grid in full gives
        rng = np.random.default_rng(26 + cap)
        cosine = NoiseSchedule.from_name("vp-cosine")
        cases = []
        for schedule, T, eps in [(VP, 1.0, 1e-3), (cosine, 0.992, 1e-3), (VE, 80.0, 0.002)]:
            for N in (1, 2, 3, 5, 15, 40):
                orders = OrderSchedule(
                    tuple(int(rng.integers(1, min(n, cap) + 1)) for n in range(1, N + 1))
                )
                spec = ObjectiveSpec(schedule, N, T, eps, orders, p=int(rng.integers(0, 4)),
                                     polynomial_kind=kind)
                lam_T, lam_eps = spec.lambda_endpoints
                uniform = np.linspace(lam_T, lam_eps, N + 1)[1:-1]
                jitter = rng.uniform(-0.4, 0.4, N - 1) * (lam_eps - lam_T) / N
                cases.append((spec, uniform + jitter))
                cases.append((spec, np.sort(rng.uniform(lam_T, lam_eps, N - 1))))
        orders = OrderSchedule.warmup(4, cap)
        close = ObjectiveSpec(VE, 4, 80.0, 0.002, orders, polynomial_kind=kind)
        cases.append((close, np.array([-1.0, -1.0 + 1e-7, 2.0])))
        deep = ObjectiveSpec(VP, 4, 1.0, 1e-300, orders, polynomial_kind=kind)
        cases.append((deep, deep.lambda_endpoints[1] - np.array([3e-4, 2e-4, 1e-4])))
        for spec, interior in cases:
            value, g = objective_gradient(spec, interior)
            stack, steps = _finite_difference_stack(spec, interior)
            f = _evaluate(spec, stack)
            assert value == f[-1]
            assert np.array_equal(g, (f[0:-1:2] - f[1:-1:2]) / (2.0 * steps))

    @pytest.mark.parametrize("kind", ["lagrange", "taylor"])
    @pytest.mark.parametrize("pick", [0, 0.5, 1])
    def test_non_finite_window_names_the_stack_step(self, monkeypatch, kind, pick):
        # an inf moment in one window raises as step_weight_array does on
        # the whole stack, at the first grid and step holding that window
        from stepopt import objective, weights

        spec = ObjectiveSpec(VP, 6, 1.0, 1e-3, OrderSchedule.warmup(6, 3), polynomial_kind=kind)
        interior = np.linspace(*spec.lambda_endpoints, 7)[1:-1]
        _, nodes, end, _, _ = objective._gradient_plan(spec.orders)
        _, table = objective._perturbed_table(objective._full_lambda(spec, interior))
        u = round(pick * (end.size - 1))
        target = table[end[u]] - table[nodes[0, u]]
        moments = weights._exp_moments

        def injected(h, count):
            out = moments(h, count)
            out[0][h == target] = np.inf
            return out

        monkeypatch.setattr(weights, "_exp_moments", injected)
        with pytest.raises(OverflowError) as windowed:
            objective_gradient(spec, interior)
        stack, _ = _finite_difference_stack(spec, interior)
        with pytest.raises(OverflowError) as stacked:
            step_weight_array(stack, spec.orders, kind, stack[:, -1:])
        assert str(windowed.value) == str(stacked.value)
        assert str(windowed.value).startswith("weights of step ")

    def test_plan_grows_linearly_and_is_built_once(self):
        # distinct windows grow as N, the stack's (grid, step) pairs as N^2
        from stepopt import objective

        for N in (15, 40):
            index, _, end, _, window = objective._gradient_plan(OrderSchedule.warmup(N, 3))
            assert index.shape == (2 * N - 1, N + 1)
            assert window.shape == (2 * N - 1, N)
            assert end.size <= 10 * N
        objective._gradient_plan.cache_clear()
        for _ in range(2):
            spec = make_spec(VP, 15, 1.0, 1e-3, max_order=3)
            objective_gradient(spec, np.linspace(*spec.lambda_endpoints, 16)[1:-1])
        info = objective._gradient_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_no_time_map_calls_once_spec_exists(self, monkeypatch):
        # endpoints and the attainable log-SNR range are fixed per spec and
        # per schedule, so evaluations never map a time again
        cosine = NoiseSchedule.from_name("vp-cosine")
        cases = [(VP, 1.0, 1e-3), (VE, 80.0, 0.002), (cosine, 0.992, 1e-3)]
        specs = [make_spec(schedule, 4, T, eps, max_order=3) for schedule, T, eps in cases]
        interiors = [np.linspace(*spec.lambda_endpoints, 5)[1:-1] for spec in specs]
        calls = []
        forward = NoiseSchedule.lambda_of_t

        def counted(self, t):
            calls.append(t)
            return forward(self, t)

        monkeypatch.setattr(NoiseSchedule, "lambda_of_t", counted)
        for spec, interior in zip(specs, interiors):
            objective_value(spec, interior)
            objective_gradient(spec, interior)
        assert calls == []

    @pytest.mark.parametrize("kind,cap", [("lagrange", 4), ("taylor", 3)])
    def test_matches_in_place_loop_bitwise(self, kind, cap):
        # optimizer paths follow round-off, so the batched gradient must
        # reproduce the loop's perturbed values exactly, not only x +- h,
        # and the value from the same stack must be the single-grid value
        rng = np.random.default_rng(17)
        cosine = NoiseSchedule.from_name("vp-cosine")
        families = [(VP, 1.0, 1e-3), (cosine, 0.992, 1e-3), (VE, 80.0, 0.002)]
        cases = []
        for schedule, T, eps in families:
            for p in (1, 2):
                for N in (2, 3, 6, 11, 16):
                    orders = OrderSchedule(
                        tuple(int(rng.integers(1, min(n, cap) + 1)) for n in range(1, N + 1))
                    )
                    spec = ObjectiveSpec(schedule, N, T, eps, orders, p=p, polynomial_kind=kind)
                    lam_T, lam_eps = spec.lambda_endpoints
                    for _ in range(3):
                        interior = np.sort(rng.uniform(lam_T, lam_eps, N - 1))
                        if np.any(np.diff(np.concatenate(([lam_T], interior, [lam_eps]))) < 1e-3):
                            continue
                        cases.append((spec, interior))
        # capped steps: two interior nodes 1e-7 apart, and gaps of 1e-4 near
        # lambda = 346, where 1e-6 |x| is more than half a gap
        close = ObjectiveSpec(VE, 4, 80.0, 0.002, OrderSchedule.warmup(4, 3), polynomial_kind=kind)
        cases.append((close, np.array([-1.0, -1.0 + 1e-7, 2.0])))
        deep = ObjectiveSpec(VP, 5, 1.0, 1e-300, OrderSchedule.warmup(5, 3), polynomial_kind=kind)
        lam_eps = deep.lambda_endpoints[1]
        cases.append((deep, np.array([0.0, lam_eps - 3e-4, lam_eps - 2e-4, lam_eps - 1e-4])))
        for spec, interior in cases:
            value, g = objective_gradient(spec, interior)
            assert value == objective_value(spec, interior)
            assert np.array_equal(g, _in_place_loop_gradient(spec, interior))


def _finite_difference_stack(spec, interior):
    """Every finite-difference grid in full, one per row, and the steps ``h``.

    Rows 2i and 2i + 1 move coordinate i to ``x_i + h_i`` and
    ``(x_i + h_i) - 2 h_i``, coordinates j < i sit at the restored
    ``x_j - h_j + h_j``, and the last row is the unperturbed grid.
    """
    lam_full = np.concatenate(([spec.lambda_endpoints[0]], interior, [spec.lambda_endpoints[1]]))
    n = spec.N - 1
    x = lam_full[1:-1]
    gaps = np.diff(lam_full)
    steps = np.minimum(1e-6 * np.maximum(1.0, np.abs(x)), 0.5 * np.minimum(gaps[:-1], gaps[1:]))
    plus = x + steps
    minus = plus - 2.0 * steps
    restored = minus + steps
    i = np.arange(n)
    stack = np.empty((2 * n + 1, spec.N + 1))
    stack[:] = lam_full
    perturbed = stack[:-1].reshape(n, 2, spec.N + 1)
    perturbed[:, :, 1:-1] = np.where(i[:, None] > i, restored, x)[:, None, :]
    perturbed[i, 0, i + 1] = plus
    perturbed[i, 1, i + 1] = minus
    return stack, steps


def _in_place_loop_gradient(spec, interior):
    """Central differences one coordinate at a time, perturbing and
    restoring a single full grid in place."""
    from stepopt.objective import _evaluate

    lam_full = np.concatenate(([spec.lambda_endpoints[0]], interior, [spec.lambda_endpoints[1]]))
    gaps = np.diff(lam_full)
    steps = np.minimum(1e-6 * np.maximum(1.0, np.abs(interior)), 0.5 * np.minimum(gaps[:-1], gaps[1:]))
    grad = np.empty(interior.size)
    for i in range(interior.size):
        h = steps[i]
        lam_full[i + 1] += h
        f_plus = float(_evaluate(spec, lam_full))
        lam_full[i + 1] -= 2.0 * h
        f_minus = float(_evaluate(spec, lam_full))
        lam_full[i + 1] += h
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def _richardson_gradient(spec, interior):
    """Extrapolated central differences at two step sizes."""

    def fd(h_scale):
        g = np.empty(interior.size)
        for i in range(interior.size):
            h = h_scale * max(1.0, abs(interior[i]))
            x_plus = interior.copy()
            x_plus[i] += h
            x_minus = interior.copy()
            x_minus[i] -= h
            g[i] = (objective_value(spec, x_plus) - objective_value(spec, x_minus)) / (
                2.0 * h
            )
        return g

    g_h = fd(1e-6)
    g_h2 = fd(5e-7)
    return (4.0 * g_h2 - g_h) / 3.0

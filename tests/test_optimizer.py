import numpy as np
import pytest

from stepopt import objective, optimizer
from stepopt.objective import (
    ConstraintViolationError,
    ObjectiveSpec,
    objective_gradient,
    objective_value,
)
from stepopt.optimizer import (
    InfeasibleError,
    OptimizerConfig,
    _value_and_gradient,
    feasibility_project,
    optimize_steps,
)
from stepopt.schedules import (
    NoiseSchedule,
    edm_grid,
    uniform_lambda_grid,
    uniform_t_grid,
)
from stepopt.weights import OrderSchedule

VE = NoiseSchedule.ve_edm()
VP = NoiseSchedule.vp_linear()


class TestFeasibilityProject:
    def test_identity_on_feasible(self):
        x = np.array([0.5, 1.5, 3.0])
        out = feasibility_project(x, 0.0, 4.0, 0.1)
        np.testing.assert_array_equal(out, x)

    def test_equal_points_separated_by_margin(self):
        out = feasibility_project(np.array([1.0, 1.0]), 0.0, 4.0, 0.25)
        assert out[1] - out[0] == pytest.approx(0.25)
        assert out[0] >= 0.25 and out[1] <= 4.0 - 0.25

    def test_infeasible_span(self):
        with pytest.raises(InfeasibleError):
            feasibility_project(np.array([0.4, 0.6]), 0.0, 1.0, 0.5)

    def test_endpoint_crowding(self):
        out = feasibility_project(np.array([-5.0, 3.95]), 0.0, 4.0, 0.1)
        gaps = np.diff(np.concatenate(([0.0], out, [4.0])))
        assert np.all(gaps >= 0.1 - 1e-12)

    def test_random_outputs_feasible(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            x = rng.uniform(-3.0, 8.0, n)
            out = feasibility_project(x, 0.0, 5.0, 0.05)
            gaps = np.diff(np.concatenate(([0.0], out, [5.0])))
            assert np.all(gaps >= 0.05 - 1e-12)


def ve_spec(N, max_order=1, **kw):
    return ObjectiveSpec(VE, N, 80.0, 0.002, OrderSchedule.warmup(N, max_order), **kw)


class TestOptimizeSteps:
    def test_two_step_closed_form_optimum(self):
        # stationary point of exp(h0) + exp(h1) under h0 + h1 fixed
        spec = ve_spec(2)
        result = optimize_steps(spec, OptimizerConfig(init="uniform-t"))
        lam_T, lam_eps = spec.lambda_endpoints
        assert result.grid.lam[1] == pytest.approx(0.5 * (lam_T + lam_eps), abs=1e-6)
        assert result.converged

    def test_single_step_trivial(self):
        spec = ve_spec(1)
        result = optimize_steps(spec, OptimizerConfig())
        assert result.iterations == 0
        assert result.converged
        assert result.grid.n_steps == 1

    def test_monotone_descent_random_specs(self):
        rng = np.random.default_rng(2718)
        for _ in range(50):
            family = rng.choice(["ve", "vp"])
            if family == "ve":
                schedule, T, eps = VE, 80.0, 0.002
            else:
                schedule, T, eps = VP, 1.0, 10 ** rng.uniform(-3.3, -2.0)
            N = int(rng.integers(2, 9))
            cap = int(rng.integers(1, 4))
            kind = str(rng.choice(["lagrange", "taylor"]))
            spec = ObjectiveSpec(
                schedule,
                N,
                T,
                eps,
                OrderSchedule.warmup(N, cap),
                p=int(rng.integers(0, 3)),
                polynomial_kind=kind,
            )
            init = str(rng.choice(["uniform-t", "uniform-lambda", "edm"]))
            trace = []
            result = optimize_steps(
                spec,
                OptimizerConfig(init=init, max_iters=60),
                on_accept=lambda i, x, f: trace.append(f),
            )
            assert len(trace) >= 1
            assert np.all(np.diff(trace) <= 0.0)
            assert result.objective <= result.initial_objective

    def test_feasibility_of_output(self):
        spec = ve_spec(8, max_order=3)
        config = OptimizerConfig(init="uniform-lambda", margin=1e-3)
        result = optimize_steps(spec, config)
        gaps = np.diff(result.grid.lam)
        assert np.all(gaps >= 1e-3 * (1.0 - 1e-9))
        lam_T, lam_eps = spec.lambda_endpoints
        assert result.grid.lam[0] == lam_T
        assert result.grid.lam[-1] == lam_eps
        assert result.grid.t[0] == 80.0 and result.grid.t[-1] == 0.002

    @pytest.mark.parametrize("N", [5, 8, 10])
    def test_improves_every_baseline(self, N):
        orders = OrderSchedule.warmup(N, 3)
        spec = ObjectiveSpec(VP, N, 1.0, 1e-3, orders, p=1)
        baselines = [
            uniform_t_grid(VP, N, 1.0, 1e-3),
            uniform_lambda_grid(VP, N, 1.0, 1e-3),
            edm_grid(VP, N, 1.0, 1e-3, 7),
        ]
        baseline_values = [objective_value(spec, g.lam[1:-1]) for g in baselines]
        best = min(
            (
                optimize_steps(spec, OptimizerConfig(init=init))
                for init in ("uniform-t", "uniform-lambda", "edm")
            ),
            key=lambda r: r.objective,
        )
        assert all(best.objective < v for v in baseline_values)

    def test_deterministic(self):
        spec = ve_spec(6, max_order=3)
        a = optimize_steps(spec, OptimizerConfig(init="uniform-lambda"))
        b = optimize_steps(spec, OptimizerConfig(init="uniform-lambda"))
        assert np.array_equal(a.grid.lam, b.grid.lam)
        assert a.objective == b.objective
        assert a.iterations == b.iterations

    def test_infeasible_endpoints(self):
        spec = ve_spec(3)
        bad = ObjectiveSpec(
            VE, 3, 0.0021, 0.002, OrderSchedule.warmup(3, 1)
        )
        with pytest.raises(InfeasibleError):
            # margin cannot fit into the tiny span
            optimize_steps(bad, OptimizerConfig(margin=1.0))
        del spec

    def test_objective_never_exceeds_initial(self):
        spec = ObjectiveSpec(VP, 7, 1.0, 1e-3, OrderSchedule.warmup(7, 3), p=2)
        for init in ("uniform-t", "uniform-lambda", "edm"):
            result = optimize_steps(spec, OptimizerConfig(init=init, max_iters=40))
            assert result.objective <= result.initial_objective

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(init="bogus")
        with pytest.raises(ValueError):
            OptimizerConfig(margin=1e-6)


def _visits(requests):
    """Points the optimizer asked the objective about: the start and each trial.

    A gradient asked for right after the value at the same point belongs
    to that point's visit.
    """
    visits = 0
    previous_name, previous_x = None, None
    for name, x in requests:
        same_visit = (name == "objective_gradient" and previous_name == "objective_value"
                      and np.array_equal(previous_x, x))
        visits += not same_visit
        previous_name, previous_x = name, x
    return visits


class TestKernelCalls:
    @pytest.mark.parametrize("kind,p,N",
                             [("lagrange", 1, 5), ("taylor", 2, 10), ("lagrange", 1, 15)])
    def test_one_evaluation_per_visited_point(self, monkeypatch, kind, p, N):
        # an accepted trial reuses the gradient evaluated with its value
        spec = ObjectiveSpec(VP, N, 1.0, 1e-3, OrderSchedule.warmup(N, 3), p=p,
                             polynomial_kind=kind)
        evaluations = []
        requests = []
        evaluate = objective._evaluate

        def counted_evaluate(spec, lam_full):
            evaluations.append(lam_full.shape)
            return evaluate(spec, lam_full)

        monkeypatch.setattr(objective, "_evaluate", counted_evaluate)
        for name in ("objective_value", "objective_gradient"):
            def requested(spec, x, name=name, forward=getattr(optimizer, name)):
                requests.append((name, np.array(x)))
                return forward(spec, x)

            monkeypatch.setattr(optimizer, name, requested)
        accepted = []
        result = optimize_steps(spec, OptimizerConfig(init="edm", max_iters=100),
                                on_accept=lambda i, x, f: accepted.append(f))
        assert len(evaluations) == _visits(requests)
        # some trials were rejected, so visits outnumber accepted points
        assert _visits(requests) > len(accepted) > 1
        assert result.objective == accepted[-1]

    def test_trial_too_close_for_differences_is_judged_by_value(self):
        spec = ve_spec(3)
        x = np.array([0.0, 1e-7])
        with pytest.raises(ConstraintViolationError, match="too close"):
            objective_gradient(spec, x)
        assert _value_and_gradient(spec, x) == (objective_value(spec, x), None)
        # a point whose value fails raises the value's error
        with pytest.raises(ConstraintViolationError, match="strictly increasing"):
            _value_and_gradient(spec, np.array([1.0, 0.0]))

    def test_trials_too_close_for_differences_end_no_run(self, monkeypatch):
        # at eps = 1e-300 the top node sits near lambda = 346, where the 1e-4 margin
        # is less than two finite-difference steps; trials there are judged by
        # their value, and only an accepted one would need its gradient
        spec = ObjectiveSpec(VP, 3, 1.0, 1e-300, OrderSchedule.warmup(3, 3), p=0)
        valued = []
        value = optimizer.objective_value

        def recorded(spec, x):
            valued.append(np.array(x))
            return value(spec, x)

        monkeypatch.setattr(optimizer, "objective_value", recorded)
        result = optimize_steps(spec, OptimizerConfig(init="uniform-lambda", margin=1e-4))

        def too_close(x):
            try:
                objective_gradient(spec, x)
            except ConstraintViolationError:
                return True
            return False

        assert any(too_close(x) for x in valued)
        assert result.objective < result.initial_objective

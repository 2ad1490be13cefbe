import json
import re

import numpy as np
import pytest

from stepopt import cli, objective, optimizer, weights
from stepopt.objective import ObjectiveSpec, objective_value
from stepopt.optimizer import InfeasibleError, OptimizerConfig, optimize_steps
from stepopt.schedules import (
    NoiseSchedule,
    edm_grid,
    uniform_lambda_grid,
    uniform_t_grid,
)
from stepopt.weights import OrderSchedule

VE = NoiseSchedule.from_name("ve-edm")
VP = NoiseSchedule.from_name("vp-linear")


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

    def test_margin_equal_to_gap_share_is_infeasible(self):
        # two gaps of exactly half the span leave no room to move a node
        spec = ve_spec(2)
        lam_T, lam_eps = spec.lambda_endpoints
        half = (lam_eps - lam_T) / 2
        assert 2 * half == lam_eps - lam_T
        with pytest.raises(InfeasibleError):
            optimize_steps(spec, OptimizerConfig(margin=half))

    @pytest.mark.parametrize("margin", [0.3, 0.5, 1.0])
    def test_start_gaps_below_margin(self, margin):
        # the first uniform-t gap is 0.223, below every margin here
        spec = ve_spec(5, max_order=3)
        start = np.diff(uniform_t_grid(VE, 5, 80.0, 0.002).lam)
        assert start[0] < margin
        result = optimize_steps(spec, OptimizerConfig(init="uniform-t", margin=margin))
        assert np.all(np.diff(result.grid.lam) >= margin)
        assert result.objective < 0.05

    def test_round_off_in_eps_keeps_best_of_3(self):
        # changes in eps of about one ulp used to move this optimum from 0.0222 to 0.486
        schedule = NoiseSchedule.from_name("vp-cosine")
        best = []
        for shift in (0.0, 4e-16, 1.2e-15, -1.6e-15):
            spec = ObjectiveSpec(schedule, 5, schedule.t_domain[1], 1e-3 + shift,
                                 OrderSchedule.warmup(5, 3), p=1)
            best.append(min(optimize_steps(spec, OptimizerConfig(init=init)).objective
                            for init in ("uniform-t", "uniform-lambda", "edm")))
        assert max(best) <= min(best) * (1 + 1e-2)

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


class TestStopReason:
    """``optimize`` says why L-BFGS-B stopped; its stdout line keeps the form the bench parses."""

    def _counted(self, monkeypatch, spec, config):
        calls = []
        gradient = optimizer.objective_gradient

        def counted(spec, x):
            calls.append(None)
            return gradient(spec, x)

        monkeypatch.setattr(optimizer, "objective_gradient", counted)
        result = optimize_steps(spec, config)
        assert result.evaluations == len(calls) > result.iterations
        return result

    def _run(self, tmp_path, capsys, *flags):
        capsys.readouterr()
        assert cli.main(["optimize", *flags, "--out", str(tmp_path / "o.json")]) == 0
        captured = capsys.readouterr()
        assert re.search(r"objective (\S+) -> (\S+) in \d+ iterations, ", captured.out)
        return captured.err

    def test_converged_run(self, tmp_path, capsys, monkeypatch):
        result = self._counted(monkeypatch, ve_spec(2), OptimizerConfig(init="uniform-t"))
        assert result.converged and result.message.startswith("CONVERGENCE")
        flags = ("--schedule", "ve-edm", "--N", "2", "--order", "1", "--init", "uniform-t")
        assert self._run(tmp_path, capsys, *flags) == ""

    def test_abnormal_run_names_message_and_counts(self, tmp_path, capsys, monkeypatch):
        spec = ObjectiveSpec(VP, 15, 1.0, 1e-3, OrderSchedule.warmup(15, 3))
        result = self._counted(monkeypatch, spec, OptimizerConfig(init="edm"))
        assert not result.converged and result.message.startswith("ABNORMAL")
        err = self._run(tmp_path, capsys, "--schedule", "vp-linear", "--N", "15", "--init", "edm")
        assert err == (
            f"note: L-BFGS-B stopped ({result.message.strip()}) after {result.iterations} "
            f"iterations and {result.evaluations} objective calls\n"
        )


class TestKernelCalls:
    @pytest.mark.parametrize("kind,p,N",
                             [("lagrange", 1, 5), ("taylor", 2, 10), ("lagrange", 1, 15)])
    def test_one_evaluation_per_visited_point(self, monkeypatch, kind, p, N):
        # an accepted trial reuses the gradient evaluated with its value
        spec = ObjectiveSpec(VP, N, 1.0, 1e-3, OrderSchedule.warmup(N, 3), p=p,
                             polynomial_kind=kind)
        evaluations = []
        requests = []
        kernel = weights._window_weights

        def counted_kernel(nodes, *args):
            evaluations.append(nodes.shape)
            return kernel(nodes, *args)

        monkeypatch.setattr(weights, "_window_weights", counted_kernel)
        monkeypatch.setattr(objective, "_window_weights", counted_kernel)
        gradient = optimizer.objective_gradient

        def requested(spec, x):
            value, grad = gradient(spec, x)
            requests.append((np.array(x), value))
            return value, grad

        monkeypatch.setattr(optimizer, "objective_gradient", requested)
        accepted = []
        result = optimize_steps(spec, OptimizerConfig(init="edm", max_iters=100),
                                on_accept=lambda i, x, f: accepted.append((x, f)))
        assert len(evaluations) == len(requests)
        # the start point is evaluated once
        assert not np.array_equal(requests[0][0], requests[1][0])
        assert result.initial_objective == requests[0][1]
        # some trials were rejected, so requests outnumber accepted points
        assert len(requests) > len(accepted) > 1
        assert result.objective == accepted[-1][1]
        # every accepted point carries the value evaluated at that point
        values = {x.tobytes(): f for x, f in requests}
        assert all(values[x.tobytes()] == f for x, f in accepted)

    @pytest.mark.parametrize("family,eps,N,p,kind,init", [
        ("vp-linear", 1e-300, 5, 1, "taylor", "uniform-t"),
        ("vp-linear", 1e-200, 8, 0, "taylor", "uniform-lambda"),
        ("vp-cosine", 1e-300, 8, 0, "lagrange", "uniform-lambda"),
        ("vp-cosine", 1e-200, 3, 2, "lagrange", "uniform-t"),
        ("vp-cosine", 1e-200, 3, 3, "lagrange", "uniform-t"),
    ])
    def test_margin_below_two_uncapped_steps(self, family, eps, N, p, kind, init):
        # at lambda of about 230 (eps 1e-200) or 346 (eps 1e-300) an uncapped
        # step 1e-6 |x| exceeds half the 1e-4 margin, and these runs visit
        # trials with nodes at that margin
        schedule = NoiseSchedule.from_name(family)
        spec = ObjectiveSpec(schedule, N, schedule.t_domain[1], eps, OrderSchedule.warmup(N, 3),
                             p=p, polynomial_kind=kind)
        result = optimize_steps(spec, OptimizerConfig(init=init, margin=1e-4))
        assert result.objective <= result.initial_objective
        assert np.all(np.diff(result.grid.lam) >= 1e-4)


# best-of-3 files of the benchmark's optimize workload (vp-linear, order 3, p = 1),
# recorded with numpy 2.4.6, scipy 1.17.1 and its bundled OpenBLAS 0.3.31 on
# x86-64; the bits also follow the BLAS and libm builds, so in another
# environment a mismatch calls for a re-record at an unchanged tree first
BENCHMARK_OPTIMA = {
    5: (0.04304272298229808, [
        -5.024978406659204, -0.05182363185019412, 2.1974103028831653, 3.454011960655939,
        4.069533799022474, 4.557714932729898]),
    10: (0.09356596208671422, [
        -5.024978406659204, -3.7379799939776692, -1.47619252377355, -0.3310141378987108,
        0.3386253638395722, 0.9737975041502498, 1.5675984659352427, 2.280440101048799,
        3.0983448251820347, 3.891994728382067, 4.557714932729898]),
    15: (0.09451820725890868, [
        -5.024978406659204, -4.383155493507641, -2.4359573607105816, -1.4305098859637742,
        -0.9116396443757209, -0.3663313196962319, 0.11201238977272787, 0.5300219064492033,
        0.9251939786571173, 1.336208275686264, 1.7622789542076136, 2.2359119407548658,
        2.777801809069321, 3.4077613102334263, 4.033400382244531, 4.557714932729898]),
}


@pytest.mark.parametrize("N", sorted(BENCHMARK_OPTIMA))
def test_benchmark_optimize_outputs_are_unchanged(tmp_path, N):
    # optimizer paths follow round-off, and the benchmark's quality metrics
    # follow these files; a change meant to move them re-records the values
    out = tmp_path / "optimized.json"
    assert cli.main(["optimize", "--init", "best-of-3", "--schedule", "vp-linear", "--N", str(N),
                     "--order", "3", "--p", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    value, lam = BENCHMARK_OPTIMA[N]
    assert payload["objective"] == value
    assert payload["lambda"] == lam

import functools
import gc
import json
import math
import weakref

import numpy as np
import pytest
import scipy.integrate
from helpers import grid_from_lambda
from scipy.integrate import DOP853, solve_ivp

from stepopt import cli, simulator
from stepopt.schedules import (
    NoiseSchedule,
    edm_grid,
    uniform_lambda_grid,
    uniform_t_grid,
)
from stepopt.simulator import (
    AnalyticModel,
    SamplerRun,
    data_prediction,
    evaluate_schedules,
    load_model,
    model_from_dict,
    multistep_sample,
    non_finite_message,
    reference_solution,
    standard_test_mixture,
)
from stepopt.simulator import _posterior_mean, _reference_batch, _sample_batch
from stepopt.weights import OrderSchedule, step_weight_array

VE = NoiseSchedule.from_name("ve-edm")
VP = NoiseSchedule.from_name("vp-linear")
FAMILY_RANGES = {"vp-linear": (1.0, 1e-3), "vp-cosine": (0.992, 1e-3), "ve-edm": (80.0, 0.002)}


def single_gaussian(mu, s):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return AnalyticModel(pis=np.array([1.0]), mus=mu[None, :], stds=np.array([s]))


def random_ve_grid(rng, n_max=15):
    N = int(rng.integers(1, n_max + 1))
    lam_T, lam_eps = -4.3, 6.2
    while True:
        interior = np.sort(rng.uniform(lam_T + 0.01, lam_eps - 0.01, N - 1))
        lam = np.concatenate(([lam_T], interior, [lam_eps]))
        if np.all(np.diff(lam) > 1e-4):
            return grid_from_lambda(lam)


class TestAnalyticModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AnalyticModel(
                pis=np.array([0.5, 0.4]),
                mus=np.zeros((2, 2)),
                stds=np.array([1.0, 1.0]),
            )

    def test_positive_stds(self):
        with pytest.raises(ValueError):
            AnalyticModel(pis=np.array([1.0]), mus=np.zeros((1, 2)), stds=np.array([0.0]))

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            AnalyticModel(pis=np.array([1.0]), mus=np.zeros((1, 17)), stds=np.array([1.0]))

    def test_json_round_trip(self, tmp_path):
        payload = {
            "dim": 2,
            "components": [
                {"pi": 0.5, "mu": [2.0, 2.0], "s": 0.5},
                {"pi": 0.5, "mu": [-2.0, -2.0], "s": 0.5},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        model = load_model(path)
        ref = standard_test_mixture()
        np.testing.assert_array_equal(model.mus, ref.mus)
        np.testing.assert_array_equal(model.pis, ref.pis)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict(
                {"dim": 3, "components": [{"pi": 1.0, "mu": [0.0], "s": 1.0}]}
            )


class TestDataPrediction:
    def test_single_gaussian_balanced_point(self):
        model = single_gaussian([0.0], 1.0)
        t_star = float(VP.t_of_lambda(0.0))
        pred = data_prediction(model, np.array([1.0]), VP, t_star)
        assert pred[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-10)

    def test_small_noise_limit(self):
        # as sigma -> 0 the prediction collapses to x / alpha
        model = single_gaussian([3.0], 2.0)
        t = 0.002  # ve_edm: alpha = 1, sigma = 0.002
        x = np.array([0.7])
        pred = data_prediction(model, x, VE, t)
        assert pred[0] == pytest.approx(0.7, rel=1e-4)

    def test_symmetric_mixture_at_origin(self):
        model = standard_test_mixture()
        pred = data_prediction(model, np.zeros(2), VP, 0.5)
        np.testing.assert_allclose(pred, 0.0, atol=1e-12)

    def test_separated_components_no_overflow(self):
        model = AnalyticModel(
            pis=np.array([0.5, 0.5]),
            mus=np.array([[400.0], [-400.0]]),
            stds=np.array([0.1, 0.1]),
        )
        pred = data_prediction(model, np.array([350.0]), VE, 0.01)
        assert np.all(np.isfinite(pred))

    @pytest.mark.parametrize("name", ["data_prediction", "multistep_sample", "reference_solution"])
    def test_batch_shape(self, name):
        # one state maps to one state and a batch to a batch, with each
        # draw's result independent of the rest; the reference uses one
        # Gaussian, since the adaptive mixture solve picks its steps from
        # the whole batch
        model = standard_test_mixture()
        grid = uniform_lambda_grid(VP, 4, 1.0, 1e-3)
        run = SamplerRun(grid, OrderSchedule.warmup(4, 3), "lagrange", model, VP)
        call = {
            "data_prediction": lambda x: data_prediction(model, x, VP, 0.5),
            "multistep_sample": lambda x: multistep_sample(run, x),
            "reference_solution": lambda x: reference_solution(
                single_gaussian([1.5, -0.5], 0.7), VP, x, 1.0, 1e-3
            ),
        }[name]
        x = np.random.default_rng(0).normal(size=(10, 2))
        batch, single = call(x), call(x[0])
        assert batch.shape == (10, 2) and single.shape == (2,)
        assert np.array_equal(single, batch[0])

    def test_matches_difference_form(self):
        # random mixtures, with (alpha, sigma) at both ends of every family
        rng = np.random.default_rng(11)
        coefficients = []
        for name, (T, eps) in FAMILY_RANGES.items():
            schedule = NoiseSchedule.from_name(name)
            lam = schedule.lambda_of_t(np.array([T, eps]))
            alphas, sigmas = schedule.alpha_sigma_of_lambda(lam)
            coefficients += [(float(a), float(s)) for a, s in zip(alphas, sigmas)]
        worst = 0.0
        for trial in range(60):
            K, dim = int(rng.integers(1, 6)), int(rng.integers(1, 17))
            scale = 400.0 if trial % 2 else 10.0
            mus = rng.normal(size=(K, dim))
            mus /= np.linalg.norm(mus, axis=1, keepdims=True)
            mus *= scale * rng.uniform(0, 1, size=(K, 1))
            model = AnalyticModel(
                pis=rng.dirichlet(np.ones(K)), mus=mus, stds=rng.uniform(0.05, 2.0, size=K)
            )
            for alpha, sigma in coefficients:
                # draws around the scaled means and far from all of them
                near = alpha * mus[rng.integers(0, K, size=32)]
                spread = (alpha + sigma) * rng.uniform(0, 2, size=(32, 1))
                x = near + spread * rng.normal(size=(32, dim))
                got = _predict(model, x, alpha, sigma)
                want = _difference_posterior_mean(model, x, alpha, sigma)
                worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        assert worst <= 1e-10

    def test_matches_draw_major_layout(self):
        # Bitwise where the float operations are those of the draw-major
        # kernel: K = 1 (the closed form reduces over nothing) at every
        # dim, and dim <= 2 for mixtures.  Otherwise the einsum over
        # dim >= 3 sums in another order, so the two may differ by
        # rounding that the exponentials amplify; 1000 eps of the largest
        # entry bounds that.
        rng = np.random.default_rng(23)
        coefficients = [(0.6, 0.8), (0.999, 0.04), (0.01, 0.9999)]
        for name, (T, eps) in FAMILY_RANGES.items():
            schedule = NoiseSchedule.from_name(name)
            eps = eps if name == "ve-edm" else 1e-300
            alphas, sigmas = schedule.alpha_sigma_of_lambda(schedule.lambda_of_t(np.array([T, eps])))
            coefficients += [(float(a), float(s)) for a, s in zip(alphas, sigmas)]
        exact = 0
        for trial in range(120):
            K, dim = 1 + trial % 5, 1 + (trial // 5) % 16
            scale = 400.0 if trial % 2 else 10.0
            mus = scale * rng.normal(size=(K, dim))
            model = AnalyticModel(
                pis=rng.dirichlet(np.ones(K)), mus=mus, stds=rng.uniform(0.05, 2.0, size=K)
            )
            for alpha, sigma in coefficients:
                x = alpha * mus[rng.integers(0, K, size=64)] + scale * rng.normal(size=(64, dim))
                want = _draw_major_posterior_mean(model, x, alpha, sigma)
                got = _posterior_mean(
                    model, np.ascontiguousarray(x.T)[:, None], np.array([alpha]), np.array([sigma])
                )
                assert got.flags.c_contiguous and got.shape == (dim, 1, 64)
                if K == 1 or dim <= 2:
                    exact += 1
                    assert np.array_equal(got[:, 0].T, want)
                else:
                    tol = 1e3 * np.finfo(float).eps * np.max(np.abs(want))
                    assert np.max(np.abs(got[:, 0].T - want)) <= tol
        assert exact > 0


class TestMultistepSample:
    def test_near_point_mass_constant_prediction(self):
        # with s ~ 0, the prediction is essentially the mean everywhere,
        # so the state matches the constant-prediction closed form
        model = single_gaussian([1.2, -0.4], 1e-6)
        grid = uniform_lambda_grid(VE, 6, 80.0, 0.002)
        run = SamplerRun(grid, OrderSchedule.warmup(6, 3), "lagrange", model, VE)
        x_T = np.array([30.0, -55.0])
        out = multistep_sample(run, x_T)
        lam_T, lam_eps = grid.lam[0], grid.lam[-1]
        sigma_T, sigma_eps = 80.0, 0.002
        closed = (sigma_eps / sigma_T) * x_T + sigma_eps * (
            math.exp(lam_eps) - math.exp(lam_T)
        ) * np.array([1.2, -0.4])
        np.testing.assert_allclose(out, closed, atol=1e-6)

    def test_exact_constant_prediction_any_schedule(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            grid = random_ve_grid(rng)
            N = grid.n_steps
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
            lam_T, lam_eps = grid.lam[0], grid.lam[-1]
            closed = (math.exp(-lam_eps) / math.exp(-lam_T)) * x_T + math.exp(
                -lam_eps
            ) * (math.exp(lam_eps) - math.exp(lam_T)) * c
            worst = max(
                worst, float(np.max(np.abs(out - closed)) / np.max(np.abs(closed)))
            )
        assert worst < 1e-9

    def test_single_step_is_one_step_update(self):
        model = standard_test_mixture()
        grid = uniform_lambda_grid(VP, 1, 1.0, 1e-3)
        run = SamplerRun(grid, OrderSchedule((1,)), "lagrange", model, VP)
        with pytest.raises(ValueError, match="does not match the grid"):
            SamplerRun(grid, OrderSchedule((1, 2)), "lagrange", model, VP)
        rng = np.random.default_rng(8)
        x_T = rng.normal(size=2)
        out = multistep_sample(run, x_T)
        # manual first-order update
        a, s = VP.alpha_sigma_of_lambda(grid.lam)
        pred = data_prediction(model, x_T, VP, 1.0)
        h = grid.lam[1] - grid.lam[0]
        expect = (s[1] / s[0]) * x_T + a[1] * (1.0 - math.exp(-h)) * pred
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_convergence_in_steps_single_gaussian(self):
        model = single_gaussian([1.5, -0.5], 0.7)
        rng = np.random.default_rng(4)
        x_T = rng.normal(size=(16, 2)) * 1.1
        ref = _reference_batch(
            model, VP, x_T.T, float(VP.lambda_of_t(1.0)), float(VP.lambda_of_t(1e-3))
        ).T
        errs = {}
        for N in (5, 10):
            grid = uniform_lambda_grid(VP, N, 1.0, 1e-3)
            out = _sample_batch(
                grid.lam[None],
                OrderSchedule.warmup(N, 3),
                "lagrange",
                VP,
                functools.partial(_posterior_mean, model),
                x_T.T[:, None],
            )[0][:, 0].T
            errs[N] = float(np.mean(np.linalg.norm(out - ref, axis=1)))
        assert errs[10] < errs[5]

    def test_non_finite_reported(self):
        model = standard_test_mixture()
        grid = uniform_lambda_grid(VP, 2, 1.0, 1e-3)
        run = SamplerRun(grid, OrderSchedule.warmup(2, 2), "lagrange", model, VP)
        with pytest.raises(FloatingPointError, match=r"^sampler state non-finite entering step 1$"):
            multistep_sample(run, np.array([np.inf, 0.0]))


class TestStackedSampler:
    def test_matches_per_grid_loop(self):
        # one stacked pass against the one-grid-at-a-time loop on the
        # draw-major layout, each grid with draws of its own; bitwise where
        # the posterior means are (K = 1, or dim <= 2), else 1000 eps
        rng = np.random.default_rng(31)
        exact = 0
        for trial in range(36):
            name = sorted(FAMILY_RANGES)[trial % 3]
            schedule = NoiseSchedule.from_name(name)
            T, eps = FAMILY_RANGES[name]
            eps = 1e-300 if trial % 2 and name != "ve-edm" else eps
            kind = ("lagrange", "taylor")[trial // 3 % 2]
            K, dim = 1 + trial % 4, (1, 2, 3, 16)[trial // 9]
            model = AnalyticModel(
                pis=rng.dirichlet(np.ones(K)),
                mus=3.0 * rng.normal(size=(K, dim)),
                stds=rng.uniform(0.1, 1.5, size=K),
            )
            N = int(rng.integers(1, 13))
            top = 4 if kind == "lagrange" else 3
            orders = OrderSchedule(
                tuple(int(rng.integers(1, min(n, top) + 1)) for n in range(1, N + 1))
            )
            grids = [
                f(schedule, N, T, eps) for f in (uniform_lambda_grid, uniform_t_grid, edm_grid)
            ]
            x = 2.0 * rng.normal(size=(dim, len(grids), 16))
            got = _sample_batch(
                np.stack([g.lam for g in grids]), orders, kind, schedule,
                functools.partial(_posterior_mean, model), x,
            )[0]
            assert got.flags.c_contiguous and got.shape == x.shape
            for g, grid in enumerate(grids):
                want = _per_grid_sample(grid, orders, kind, schedule, model, x[:, g].T)
                if K == 1 or dim <= 2:
                    exact += 1
                    assert np.array_equal(got[:, g].T, want)
                else:
                    tol = 1e3 * np.finfo(float).eps * np.max(np.abs(want))
                    assert np.max(np.abs(got[:, g].T - want)) <= tol
        assert exact > 0

    def test_keeps_only_the_predictions_it_reads(self):
        refs, alive = [], []

        def predict(x, alpha, sigma):
            out = np.zeros_like(x)
            refs.append(weakref.ref(out))
            alive.append(sum(r() is not None for r in refs))
            return out

        grid = uniform_lambda_grid(VP, 40, 1.0, 1e-3)
        orders = OrderSchedule.warmup(40, 4)
        _sample_batch(grid.lam[None], orders, "lagrange", VP, predict, np.ones((2, 1, 8)))
        assert len(refs) == 40 and max(alive) <= max(orders.k) + 1

    def test_non_finite_names_step_and_grid(self):
        # grid 2 starts non-finite and grid 1 gets a NaN prediction at step
        # 2; both are recorded, grid 0 finishes finite, and no floating-point
        # warning (an error under pytest) escapes the sampler
        grid = uniform_lambda_grid(VP, 3, 1.0, 1e-3)
        x = np.zeros((2, 3, 4))
        x[1, 2, 3] = np.nan
        calls = []

        def predict(x, alpha, sigma):
            out = _posterior_mean(standard_test_mixture(), x, alpha, sigma)
            calls.append(None)
            if len(calls) == 2:
                out[:, 1] = np.nan
            return out

        errors = np.geterr()
        args = (np.stack([grid.lam] * 3), OrderSchedule.warmup(3, 2), "lagrange", VP, predict, x)
        out, entered = _sample_batch(*args)
        assert entered.tolist() == [0, 3, 1]
        assert np.isfinite(out[:, 0]).all() and np.geterr() == errors
        assert non_finite_message(1, 3, "c") == "sampler state non-finite entering step 1 of grid 'c'"
        assert non_finite_message(4, 3) == "sampler state non-finite after step 3"

    @pytest.mark.parametrize("mode", [None, "raise"])
    def test_overflowing_grid_leaves_the_others_bitwise(self, mode):
        # grid 1 starts at a finite 1e200 and overflows: it names its own
        # step, grids 0 and 2 equal a run without it, and neither a warning
        # (an error under pytest) nor a caller's raising errstate stops the
        # pass, whose floating-point settings are restored afterwards
        grid = uniform_lambda_grid(VP, 3, 1.0, 1e-3)
        x = np.random.default_rng(7).normal(size=(2, 3, 4))
        x[:, 1] = 1e200
        predict = functools.partial(_posterior_mean, standard_test_mixture())
        rest = (OrderSchedule.warmup(3, 2), "lagrange", VP, predict)
        with np.errstate(all=mode):
            errors = np.geterr()
            out, entered = _sample_batch(np.stack([grid.lam] * 3), *rest, x)
            assert np.geterr() == errors
        alone = _sample_batch(np.stack([grid.lam] * 2), *rest, np.ascontiguousarray(x[:, ::2]))[0]
        assert entered.tolist() == [0, 2, 0]
        assert np.array_equal(out[:, ::2], alone) and np.isfinite(alone).all()

    @pytest.mark.parametrize("kind", ["lagrange", "taylor"])
    @pytest.mark.parametrize("name", sorted(FAMILY_RANGES))
    def test_single_gaussian_matches_scalar_recursion(self, name, kind):
        # on N(mu, s^2 I) each prediction is a_n x + b_n mu, so the terminal
        # state is g x_T + h mu with scalars g and h that follow the steps
        rng = np.random.default_rng(sorted(FAMILY_RANGES).index(name) * 2 + (kind == "taylor"))
        schedule = NoiseSchedule.from_name(name)
        T, eps = FAMILY_RANGES[name]
        for N, make in zip((5, 10, 15), (uniform_lambda_grid, edm_grid, uniform_t_grid)):
            dim, s = int(rng.integers(1, 17)), float(rng.uniform(0.05, 2.0))
            mu = 3.0 * rng.normal(size=dim)
            lam = make(schedule, N, T, eps).lam
            orders = OrderSchedule.warmup(N, 3)
            alpha_T, sigma_T = schedule.alpha_sigma_of_lambda(lam[0])
            x_T = math.sqrt(alpha_T**2 * (s * s + mu @ mu / dim) + sigma_T**2) * rng.normal(
                size=(dim, 1, 16))
            got = _sample_batch(lam[None], orders, kind, schedule,
                                functools.partial(_posterior_mean, single_gaussian(mu, s)), x_T)[0]
            alphas, sigmas = (v.tolist() for v in schedule.alpha_sigma_of_lambda(lam))
            w = step_weight_array(lam, orders, kind, lam[1:]).tolist()
            g, h, preds = 1.0, 0.0, []  # the state g x_T + h mu, the predictions likewise
            for n in range(1, N + 1):
                a, sig = alphas[n - 1], sigmas[n - 1]
                var = a * a * s * s + sig * sig
                preds.append((a * s * s / var * g, (a * s * s * h + sig * sig) / var))
                g, h = sigmas[n] / sigmas[n - 1] * g, sigmas[n] / sigmas[n - 1] * h
                for d in range(orders.k[n - 1]):
                    pg, ph = preds[n - 1 - d]
                    g += alphas[n] * w[n - 1][d] * pg
                    h += alphas[n] * w[n - 1][d] * ph
            want = g * x_T + h * mu[:, None, None]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _per_grid_sample(grid, orders, kind, schedule, model, x):
    """The sampler on one grid and an (S, dim) draw-major batch, keeping
    every prediction: the reference for the float operations of the
    stacked pass."""
    lam = grid.lam
    alphas, sigmas = schedule.alpha_sigma_of_lambda(lam)
    w = step_weight_array(lam, orders, kind, lam[1:])
    history = []
    for n in range(1, grid.n_steps + 1):
        history.append(
            _draw_major_posterior_mean(model, x, float(alphas[n - 1]), float(sigmas[n - 1]))
        )
        k = orders.k[n - 1]
        x = (sigmas[n] / sigmas[n - 1]) * x
        for j in range(k):
            x += alphas[n] * w[n - 1, k - 1 - j] * history[n - k + j]
    return x


def _predict(model, x, alpha, sigma):
    """Posterior mean of an (S, dim) batch through the dim-major kernel."""
    x = np.ascontiguousarray(x.T)[:, None]
    return _posterior_mean(model, x, np.array([alpha]), np.array([sigma]))[:, 0].T


def _draw_major_posterior_mean(model, x, alpha, sigma):
    """Posterior mean on the (S, dim) draw-major layout: the reference for
    the float operations of the dim-major kernel."""
    x = np.atleast_2d(x)
    mus = model.mus
    s2 = model.stds**2
    var = alpha * alpha * s2 + sigma * sigma  # (K,)
    sq = (
        np.einsum("ij,ij->i", x, x)[None, :]
        - 2.0 * alpha * (mus @ x.T)
        + (alpha * alpha * np.einsum("ij,ij->i", mus, mus))[:, None]
    )  # (K, S)
    log_r = (
        np.log(np.maximum(model.pis, 1e-300)) - 0.5 * model.dim * np.log(var)
    )[:, None] - (0.5 / var)[:, None] * sq
    log_r -= np.max(log_r, axis=0)
    r = np.exp(log_r)
    r /= np.sum(r, axis=0)
    r /= var[:, None]
    return (alpha * (s2 @ r))[:, None] * x + sigma * sigma * (r.T @ mus)


def _difference_posterior_mean(model, x, alpha, sigma):
    """Posterior mean from explicit differences x - alpha mu, on an (S, K, dim) layout."""
    var = alpha * alpha * model.stds**2 + sigma * sigma
    diff = x[:, None, :] - alpha * model.mus[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    log_r = np.log(model.pis)[None, :] - 0.5 * sq / var - 0.5 * model.dim * np.log(var)
    log_r -= np.max(log_r, axis=1, keepdims=True)
    r = np.exp(log_r)
    r /= np.sum(r, axis=1, keepdims=True)
    comp_mean = (
        alpha * model.stds[None, :, None] ** 2 * x[:, None, :]
        + sigma * sigma * model.mus[None, :, :]
    ) / var[None, :, None]
    return np.sum(r[:, :, None] * comp_mean, axis=1)


def _array_form_flow(model, schedule, lam, x):
    """The reference's right-hand side on a (dim, S) state, its per-lambda
    coefficients formed by numpy array operations: the reference for the
    float operations of the coefficients built from Python floats."""
    dim, S = x.shape
    mus = model.mus
    s2, mu2, log_pi = (v.ravel() for v in model._terms)
    log_alpha, log_sigma = (float(v) for v in schedule.log_alpha_sigma_of_lambda(lam))
    alpha, sigma2 = math.exp(log_alpha), math.exp(2.0 * log_sigma)
    a2 = alpha * alpha
    inv_var = 1.0 / (s2 * a2 + sigma2)
    log_coef = np.empty((mus.shape[0], dim + 2))
    log_coef[:, :dim] = mus * (alpha * inv_var)[:, None]
    log_coef[:, dim] = -0.5 * inv_var
    log_coef[:, dim + 1] = log_pi + 0.5 * dim * np.log(inv_var) - (0.5 * a2) * mu2 * inv_var
    flow_coef = np.empty((dim + 2, mus.shape[0]))
    flow_coef[:dim] = mus.T * ((alpha * sigma2) * inv_var)
    flow_coef[dim] = (a2 * (s2 * -math.expm1(2.0 * log_alpha) - sigma2)) * inv_var
    flow_coef[-1] = 1.0
    r = log_coef @ np.vstack([x, np.einsum("ij,ij->j", x, x), np.ones(S)])
    r -= r.max(axis=0)
    np.exp(r, out=r)
    out = flow_coef @ r
    flow = out[dim] * x
    flow += out[:dim]
    flow /= out[dim + 1]
    return flow


def _recorded_flows(monkeypatch):
    """The list to which each DOP853 solver started from now on adds its right-hand side."""
    flows = []

    class Recording(DOP853):
        def __init__(self, fun, *args, **kwargs):
            flows.append(fun)
            super().__init__(fun, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "DOP853", Recording)
    return flows


class TestReferenceSolution:
    def test_closed_form_matches_adaptive(self):
        model = single_gaussian([1.5, -0.5], 0.7)
        # same distribution expressed as a two-component mixture forces
        # the adaptive-integrator route
        split = AnalyticModel(
            pis=np.array([0.5, 0.5]),
            mus=np.array([[1.5, -0.5], [1.5, -0.5]]),
            stds=np.array([0.7, 0.7]),
        )
        rng = np.random.default_rng(1)
        x_T = rng.normal(size=(8, 2)) * 1.2
        closed = reference_solution(model, VP, x_T, 1.0, 1e-3)
        adaptive = reference_solution(split, VP, x_T, 1.0, 1e-3)
        assert np.max(np.abs(closed - adaptive)) < 1e-8

    def test_mean_line_fixed_trajectory(self):
        model = single_gaussian([2.0, -1.0], 0.5)
        alpha_T = math.exp(VP._log_alpha(1.0))
        alpha_eps = math.exp(VP._log_alpha(1e-3))
        x_T = alpha_T * model.mus[0]
        out = reference_solution(model, VP, x_T, 1.0, 1e-3)
        np.testing.assert_allclose(out, alpha_eps * model.mus[0], atol=1e-10)

    def test_symmetric_mixture_origin_fixed(self):
        model = standard_test_mixture()
        out = reference_solution(model, VP, np.zeros(2), 1.0, 1e-3)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "name,eps",
        [pytest.param(name, eps, id=name) for name, (_, eps) in sorted(FAMILY_RANGES.items())]
        + [
            pytest.param(name, 1e-300, id=f"{name}-eps1e-300")
            for name in ("vp-linear", "vp-cosine")
        ],
    )
    def test_matches_per_draw_oracle(self, name, eps):
        # each draw integrated alone at rtol 1e-12 with the difference-form
        # posterior mean, against the batched reference; eps = 1e-300 takes
        # the flow to log-SNR about 346
        model = standard_test_mixture()
        schedule = NoiseSchedule.from_name(name)
        T = FAMILY_RANGES[name][0]
        lam_T, lam_eps = (float(v) for v in schedule.lambda_of_t(np.array([T, eps])))
        alpha_T, sigma_T = schedule.alpha_sigma_of_lambda(lam_T)
        spread = math.sqrt(alpha_T**2 * model.second_moment_per_dim() + sigma_T**2)
        x_T = spread * np.random.default_rng(12).standard_normal((4, 2))
        batch = reference_solution(model, schedule, x_T, T, eps)

        def rhs(lam, y):
            alpha, sigma = (float(v) for v in schedule.alpha_sigma_of_lambda(lam))
            dlog_sigma = -1.0 if schedule.family == "ve_edm" else -alpha**2
            pred = _difference_posterior_mean(model, y[None, :], alpha, sigma)[0]
            return dlog_sigma * y + alpha * pred

        for x, got in zip(x_T, batch):
            sol = solve_ivp(rhs, (lam_T, lam_eps), x, method="DOP853", rtol=1e-12, atol=1e-14)
            assert sol.success
            assert np.max(np.abs(sol.y[:, -1] - got)) <= 1e-9

    def test_frees_its_solver(self):
        # the DOP853 solver sits in a reference cycle; the reference frees it
        gc.collect()
        x_T = np.random.default_rng(2).normal(size=(64, 2))
        reference_solution(standard_test_mixture(), VP, x_T, 1.0, 1e-3)
        assert not any(isinstance(obj, DOP853) for obj in gc.get_objects())

    @pytest.mark.parametrize("name", sorted(FAMILY_RANGES))
    def test_matches_solve_ivp_bitwise(self, monkeypatch, name):
        # the directly stepped solver gives exactly the last state that
        # solve_ivp returns for the same right-hand side
        rhs = _recorded_flows(monkeypatch)
        schedule = NoiseSchedule.from_name(name)
        T, eps = FAMILY_RANGES[name]
        x_T = 2.0 * np.random.default_rng(6).standard_normal((32, 2))
        got = reference_solution(standard_test_mixture(), schedule, x_T, T, eps)
        lam_T, lam_eps = (float(v) for v in schedule.lambda_of_t(np.array([T, eps])))
        sol = solve_ivp(rhs[0], (lam_T, lam_eps), np.ravel(x_T.T), method="DOP853",
                        rtol=1e-10, atol=1e-13)
        assert np.array_equal(got, sol.y[:, -1].reshape(2, -1).T)

    def test_flow_kernel_matches_posterior_mean(self, monkeypatch):
        # the reference's right-hand side against alpha D(x) - alpha^2 x from the
        # posterior mean, on random mixtures with draws from the marginal at each
        # lambda of the family's range, up to about 346 on the VP families; one
        # component takes the closed form, so K = 1 runs as two equal halves
        rhs = _recorded_flows(monkeypatch)
        rng = np.random.default_rng(23)
        worst = 0.0
        for trial in range(24):
            schedule = NoiseSchedule.from_name(sorted(FAMILY_RANGES)[trial % 3])
            K, dim = 1 + trial % 8, int(rng.integers(1, 17))
            # far apart against their widths at 12, so responsibilities saturate
            spread = (1.0, 4.0, 12.0)[trial // 3 % 3]
            mus = spread * rng.normal(size=(K, dim))
            stds = np.exp(rng.uniform(math.log(0.05), 0.0, K))
            pis = rng.dirichlet(np.ones(K))
            halves = 2 if K == 1 else 1
            model = AnalyticModel(np.repeat(pis, halves) / halves, np.repeat(mus, halves, axis=0),
                                  np.repeat(stds, halves))
            S = 64
            lo, hi = schedule.lambda_domain
            rhs.clear()
            _reference_batch(model, schedule, np.zeros((dim, S)), lo, lo + 1e-6)
            (flow,) = rhs
            for lam in np.linspace(lo, hi, 25):
                alpha, sigma = (float(v) for v in schedule.alpha_sigma_of_lambda(lam))
                k = rng.choice(K, size=S, p=pis)
                clean = mus[k].T + stds[k] * rng.normal(size=(dim, S))
                x = alpha * clean + sigma * rng.normal(size=(dim, S))
                pm = _posterior_mean(model, x[:, None], np.array([alpha]), np.array([sigma]))[:, 0]
                want = alpha * pm - alpha**2 * x
                got = flow(lam, x.ravel()).reshape(dim, S)
                scale = np.linalg.norm(alpha * pm, axis=0) + np.linalg.norm(alpha**2 * x, axis=0)
                worst = max(worst, float(np.max(np.linalg.norm(got - want, axis=0) / scale)))
        assert worst <= 1e-13

    def test_flow_kernel_matches_array_form_bitwise(self, monkeypatch):
        # the coefficients built from Python floats give the right-hand side
        # of the array-form kernel bit for bit, also under the solver loop's
        # short ufunc buffer: random mixtures with K 2-8, dim 1-16 and stds
        # down to 0.05, each family, lambda across its domain
        flows = _recorded_flows(monkeypatch)
        rng = np.random.default_rng(29)
        for trial in range(36):
            schedule = NoiseSchedule.from_name(sorted(FAMILY_RANGES)[trial % 3])
            K, dim, S = int(rng.integers(2, 9)), int(rng.integers(1, 17)), 32
            model = AnalyticModel(rng.dirichlet(np.ones(K)),
                                  (1.0, 4.0, 12.0)[trial // 3 % 3] * rng.normal(size=(K, dim)),
                                  np.exp(rng.uniform(math.log(0.05), 0.0, K)))
            lo, hi = schedule.lambda_domain
            flows.clear()
            _reference_batch(model, schedule, np.zeros((dim, S)), lo, lo + 1e-6)
            (flow,) = flows
            for lam in np.concatenate(([lo, hi], rng.uniform(lo, hi, 18))):
                x = 3.0 * rng.normal(size=(dim, S))
                want = _array_form_flow(model, schedule, lam, x)
                assert np.array_equal(flow(lam, x.ravel()).reshape(dim, S), want)
                with simulator._short_ufunc_buffer():
                    assert np.array_equal(flow(lam, x.ravel()).reshape(dim, S), want)
        # a width whose 1 / var_k at lambda 0 on ve-edm has an AVX-512 numpy
        # log one ulp from math.log's, and the ulp reaches the flow at dim 16
        model = AnalyticModel(np.array([0.5, 0.5]), np.zeros((2, 16)),
                              np.array([0.28844928433152023, 0.7]))
        flows.clear()
        _reference_batch(model, VE, np.zeros((16, 8)), -1.0, -1.0 + 1e-6)
        x = np.random.default_rng(0).normal(size=(16, 8))
        want = _array_form_flow(model, VE, 0.0, x)
        assert np.array_equal(flows[0](0.0, x.ravel()).reshape(16, 8), want)

    def test_failed_integration_raises(self, monkeypatch, tmp_path):
        class Failing(DOP853):
            def _step_impl(self):
                return False, "forced"

        monkeypatch.setattr(scipy.integrate, "DOP853", Failing)
        with pytest.raises(RuntimeError, match="forced"):
            reference_solution(standard_test_mixture(), VP, np.ones((3, 2)), 1.0, 1e-3)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"components": [
            {"pi": 0.5, "mu": [2.0, 2.0], "s": 0.5},
            {"pi": 0.5, "mu": [-2.0, -2.0], "s": 0.5},
        ]}))
        steps = str(tmp_path / "a.json")
        assert cli.main(["baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
                         "--N", "3", "--out", steps]) == 0
        assert cli.main(["simulate", "--model", str(model), "--steps", steps, "--seeds", "4",
                         "--out", str(tmp_path / "r.json")]) == 1


class TestEvaluateSchedules:
    def test_identical_schedules_identical_reports(self):
        model = standard_test_mixture()
        grid = uniform_lambda_grid(VP, 5, 1.0, 1e-3)
        orders = OrderSchedule.warmup(5, 3)
        reports = evaluate_schedules(
            model, VP, [grid, grid], orders, "lagrange", seeds=32, rng_seed=5
        )
        assert reports[0].mean_l2_error == reports[1].mean_l2_error
        np.testing.assert_array_equal(
            reports[0].per_seed_errors, reports[1].per_seed_errors
        )

    def test_label_count_must_match(self):
        model = standard_test_mixture()
        grid = uniform_lambda_grid(VP, 5, 1.0, 1e-3)
        orders = OrderSchedule.warmup(5, 3)
        with pytest.raises(ValueError, match="labels"):
            evaluate_schedules(
                model, VP, [grid, grid], orders, "lagrange", seeds=4, rng_seed=5,
                labels=["only-one"],
            )

    def test_reproducible_across_calls(self):
        model = standard_test_mixture()
        grid = uniform_lambda_grid(VP, 5, 1.0, 1e-3)
        orders = OrderSchedule.warmup(5, 3)
        a = evaluate_schedules(model, VP, [grid], orders, "lagrange", 32, 9)[0]
        b = evaluate_schedules(model, VP, [grid], orders, "lagrange", 32, 9)[0]
        np.testing.assert_array_equal(a.per_seed_errors, b.per_seed_errors)

    def test_large_step_count_converges(self):
        # at 50 steps both natural grids solve a smooth problem to < 1e-4
        smooth = AnalyticModel(
            pis=np.array([0.6, 0.4]),
            mus=np.array([[0.5], [-0.7]]),
            stds=np.array([0.8, 0.9]),
        )
        N = 50
        from stepopt.objective import ObjectiveSpec
        from stepopt.optimizer import OptimizerConfig, optimize_steps

        spec = ObjectiveSpec(VP, N, 1.0, 1e-3, OrderSchedule.warmup(N, 3), p=1)
        opt = optimize_steps(spec, OptimizerConfig(init="uniform-lambda", max_iters=50))
        grids = [uniform_lambda_grid(VP, N, 1.0, 1e-3), opt.grid]
        reports = evaluate_schedules(
            smooth, VP, grids, OrderSchedule.warmup(N, 3), "lagrange", 128, 9
        )
        for report in reports:
            assert report.mean_l2_error < 1e-4

    def test_endpoint_mismatch_rejected(self):
        model = standard_test_mixture()
        g1 = uniform_lambda_grid(VP, 5, 1.0, 1e-3)
        g2 = uniform_lambda_grid(VP, 5, 1.0, 2e-3)
        with pytest.raises(ValueError):
            evaluate_schedules(
                model, VP, [g1, g2], OrderSchedule.warmup(5, 3), "lagrange", 8, 0
            )

    def test_step_count_must_match_orders(self):
        model = standard_test_mixture()
        grids = [uniform_lambda_grid(VP, 5, 1.0, 1e-3), uniform_lambda_grid(VP, 6, 1.0, 1e-3)]
        orders = OrderSchedule.warmup(5, 3)
        with pytest.raises(ValueError, match="grid 'long' has 6 steps"):
            evaluate_schedules(model, VP, grids, orders, "lagrange", 4, 0, labels=["short", "long"])
        with pytest.raises(ValueError, match="grid 'schedule-1' has 6 steps"):
            evaluate_schedules(model, VP, grids, orders, "lagrange", 4, 0)

    def test_non_finite_state_names_the_grid(self, monkeypatch):
        # grid "b" alone gets NaN predictions; a single Gaussian keeps the
        # reference in closed form, away from the posterior mean
        real = simulator._posterior_mean

        def poisoned(model, x, alpha, sigma):
            out = real(model, x, alpha, sigma)
            out[:, 1] = np.nan
            return out

        monkeypatch.setattr(simulator, "_posterior_mean", poisoned)
        grid = uniform_lambda_grid(VP, 4, 1.0, 1e-3)
        a, b, c = evaluate_schedules(
            single_gaussian([1.0, -1.0], 0.5), VP, [grid] * 3, OrderSchedule.warmup(4, 3),
            "lagrange", 8, 0, labels=["a", "b", "c"],
        )
        assert b.diverged_step == 2
        assert b.mean_l2_error == b.median_l2_error == math.inf
        assert a.diverged_step is None and c.diverged_step is None
        assert np.array_equal(a.per_seed_errors, c.per_seed_errors)
        assert np.isfinite(a.per_seed_errors).all()

    def test_diverged_grid_leaves_the_others_bitwise(self, monkeypatch):
        # "b" turns NaN in the three-grid run only; "a" and "c" report
        # exactly what they report without "b" beside them.  The reference
        # (one grid) and the run without "b" (two) are left alone.
        real = simulator._posterior_mean

        def poisoned(model, x, alpha, sigma):
            out = real(model, x, alpha, sigma)
            if x.shape[1] == 3:
                out[:, 1] = np.nan
            return out

        monkeypatch.setattr(simulator, "_posterior_mean", poisoned)
        a, b, c = (f(VP, 6, 1.0, 1e-3) for f in (uniform_lambda_grid, uniform_t_grid, edm_grid))
        args = (standard_test_mixture(), VP)
        rest = (OrderSchedule.warmup(6, 3), "lagrange", 32, 5)
        with_b = evaluate_schedules(*args, [a, b, c], *rest, labels=["a", "b", "c"])
        without_b = evaluate_schedules(*args, [a, c], *rest, labels=["a", "c"])
        assert with_b[1].diverged_step == 2
        for got, want in zip((with_b[0], with_b[2]), without_b):
            assert got.diverged_step is None
            assert np.array_equal(got.per_seed_errors, want.per_seed_errors)
            assert (got.mean_l2_error, got.median_l2_error) == (
                want.mean_l2_error, want.median_l2_error
            )

    def test_overflowing_grid_leaves_the_others_bitwise(self, monkeypatch):
        # the first stacked prediction of "b" is a finite 1e300, so its state
        # overflows on the next step; "a" and "c" report exactly what they
        # report without "b" beside them
        real = simulator._posterior_mean
        calls = []

        def poisoned(model, x, alpha, sigma):
            out = real(model, x, alpha, sigma)
            if x.shape[1] == 3 and not calls:
                calls.append(None)
                out[:, 1] = 1e300
            return out

        monkeypatch.setattr(simulator, "_posterior_mean", poisoned)
        a, b, c = (f(VP, 6, 1.0, 1e-3) for f in (uniform_lambda_grid, uniform_t_grid, edm_grid))
        args = (standard_test_mixture(), VP)
        rest = (OrderSchedule.warmup(6, 3), "lagrange", 32, 5)
        with_b = evaluate_schedules(*args, [a, b, c], *rest, labels=["a", "b", "c"])
        without_b = evaluate_schedules(*args, [a, c], *rest, labels=["a", "c"])
        assert calls and with_b[1].diverged_step == 3
        assert with_b[1].mean_l2_error == with_b[1].median_l2_error == math.inf
        for got, want in zip((with_b[0], with_b[2]), without_b):
            assert got.diverged_step is None
            assert np.array_equal(got.per_seed_errors, want.per_seed_errors)
            assert (got.mean_l2_error, got.median_l2_error) == (
                want.mean_l2_error, want.median_l2_error
            )

    @pytest.mark.parametrize("case", ["late-1e300-prediction", "single-gaussian-1e200-start",
                                      "dim16-gaussian-1e200-start"])
    def test_finite_far_grid_gets_exact_errors(self, monkeypatch, case):
        # "b" ends finite but far out, where the squares of its errors
        # overflow: on the mixture one finite 1e300 prediction at its last
        # step, on one component (in 2 or 16 dimensions) a start at 1e200,
        # which the affine prediction keeps finite (about 5e199 at the
        # end).  "b" is not diverged, its errors are the exact norms, and
        # "a" and "c" report exactly what they report without "b" beside
        # them.
        real_sample, real_reference = simulator._sample_batch, simulator._reference_batch
        seen = {}

        def sample(lam, orders, kind, schedule, predict, x_start):
            if x_start.shape[1] == 3 and case == "late-1e300-prediction":
                calls = []
                inner = predict

                def predict(x, alpha, sigma):
                    out = inner(x, alpha, sigma)
                    calls.append(None)
                    if len(calls) == len(orders):
                        out[:, 1] = 1e300
                    return out
            elif x_start.shape[1] == 3:
                x_start = x_start.copy()
                x_start[:, 1] = 1e200
            out = real_sample(lam, orders, kind, schedule, predict, x_start)
            seen["b"] = out[0][:, 1]
            return out

        def reference(*args):
            seen["ref"] = real_reference(*args)
            return seen["ref"]

        monkeypatch.setattr(simulator, "_sample_batch", sample)
        monkeypatch.setattr(simulator, "_reference_batch", reference)
        if case == "late-1e300-prediction":
            model, size = standard_test_mixture(), 1e299
        elif case == "single-gaussian-1e200-start":
            model, size = single_gaussian([1.0, -1.0], 0.5), 1e199
        else:
            model, size = single_gaussian(np.linspace(-1.0, 1.0, 16), 0.5), 1e199
        grids = [f(VP, 4, 1.0, 1e-3) for f in (uniform_lambda_grid, uniform_t_grid, edm_grid)]
        rest = (OrderSchedule.warmup(4, 3), "lagrange", 8, 0)
        a, b, c = evaluate_schedules(model, VP, grids, *rest, labels=["a", "b", "c"])
        x_b = seen["b"]
        assert np.isfinite(x_b).all() and np.abs(x_b).max() > size
        assert b.diverged_step is None and np.isfinite(b.per_seed_errors).all()
        want = [math.hypot(*col) for col in (x_b - seen["ref"]).T]
        np.testing.assert_allclose(b.per_seed_errors, want, rtol=1e-14)
        assert (b.mean_l2_error, b.median_l2_error) == (
            float(np.mean(b.per_seed_errors)), float(np.median(b.per_seed_errors)))
        without_b = evaluate_schedules(model, VP, grids[::2], *rest, labels=["a", "c"])
        for got, want in zip((a, c), without_b):
            assert got.diverged_step is None
            assert np.array_equal(got.per_seed_errors, want.per_seed_errors)
            assert (got.mean_l2_error, got.median_l2_error) == (
                want.mean_l2_error, want.median_l2_error)

    def test_one_dimensional_errors_are_absolute(self, monkeypatch):
        # in one dimension the error of a draw is |x_out - x_ref|, on
        # whichever side of the reference the draw ends
        real_sample, real_reference = simulator._sample_batch, simulator._reference_batch
        seen = {}

        def sample(*args):
            seen["out"] = real_sample(*args)
            return seen["out"]

        def reference(*args):
            seen["ref"] = real_reference(*args)
            return seen["ref"]

        monkeypatch.setattr(simulator, "_sample_batch", sample)
        monkeypatch.setattr(simulator, "_reference_batch", reference)
        grid = uniform_lambda_grid(VP, 3, 1.0, 1e-3)
        (report,) = evaluate_schedules(
            single_gaussian([0.5], 0.3), VP, [grid], OrderSchedule.warmup(3, 3), "lagrange", 32, 2
        )
        diff = seen["out"][0][0, 0] - seen["ref"][0]  # (dim, G, S) and (dim, S)
        assert (diff > 0).any() and (diff < 0).any()
        assert np.array_equal(report.per_seed_errors, np.abs(diff))
        assert (report.per_seed_errors >= 0).all()

    @pytest.mark.parametrize(
        "K,dim,kind",
        [(2, 1, "lagrange"), (3, 2, "taylor"), (1, 2, "lagrange"), (3, 3, "taylor"),
         (4, 16, "lagrange"), (1, 7, "taylor"), (1, 16, "lagrange")],
    )
    def test_grids_are_not_coupled(self, K, dim, kind):
        # each grid's errors do not depend on which grids run beside it;
        # bitwise where the posterior means are (K = 1, or dim <= 2)
        rng = np.random.default_rng(K * 100 + dim)
        model = AnalyticModel(
            pis=rng.dirichlet(np.ones(K)),
            mus=2.0 * rng.normal(size=(K, dim)),
            stds=rng.uniform(0.3, 1.2, size=K),
        )
        schedule = NoiseSchedule.from_name("vp-cosine")
        a, b, c = (
            f(schedule, 8, 0.992, 1e-300) for f in (uniform_lambda_grid, uniform_t_grid, edm_grid)
        )
        orders = OrderSchedule.warmup(8, 3)

        def errors(grids):
            reports = evaluate_schedules(model, schedule, grids, orders, kind, 64, 17)
            return [r.per_seed_errors for r in reports]

        abc, ca, alone = errors([a, b, c]), errors([c, a]), errors([b])
        for got, want in ((ca[1], abc[0]), (ca[0], abc[2]), (alone[0], abc[1])):
            if K == 1 or dim <= 2:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e3 * np.finfo(float).eps * np.max(want)


class TestUfuncBuffer:
    # the sampler's and the reference's loops run with a 256-element ufunc
    # buffer; the weights, the solver's set-up and every other line run at
    # the caller's size, which comes back on every exit, errors included

    @pytest.fixture(params=[8192, 1024], ids=["default-8192", "caller-1024"])
    def caller_size(self, request):
        old = np.setbufsize(request.param)
        yield request.param
        np.setbufsize(old)

    def _sample(self, predict, monkeypatch, sizes):
        def weights(*args):
            sizes["weights"] = np.getbufsize()
            return step_weight_array(*args)

        monkeypatch.setattr(simulator, "step_weight_array", weights)
        grid = uniform_lambda_grid(VP, 6, 1.0, 1e-3)
        x = np.random.default_rng(3).normal(size=(2, 1, 16))
        return _sample_batch(grid.lam[None], OrderSchedule.warmup(6, 3), "lagrange", VP,
                             predict, x)

    def test_sampler_loop_only(self, monkeypatch, caller_size):
        sizes = {}

        def predict(*args):
            sizes["loop"] = np.getbufsize()
            return _posterior_mean(standard_test_mixture(), *args)

        self._sample(predict, monkeypatch, sizes)
        assert sizes == {"weights": caller_size, "loop": 256}
        assert np.getbufsize() == caller_size

    def test_sampler_restores_on_error(self, monkeypatch, caller_size):
        def predict(*args):
            raise ZeroDivisionError("forced")

        with pytest.raises(ZeroDivisionError, match="forced"):
            self._sample(predict, monkeypatch, {})
        assert np.getbufsize() == caller_size

    @pytest.mark.parametrize("fail", [False, True], ids=["finishes", "step-raises"])
    def test_reference_loop_only(self, monkeypatch, caller_size, fail):
        sizes = []

        class Recording(DOP853):
            def __init__(self, *args, **kwargs):
                sizes.append(np.getbufsize())
                super().__init__(*args, **kwargs)

            def step(self):
                sizes.append(np.getbufsize())
                if fail:
                    raise ZeroDivisionError("forced")
                return super().step()

        monkeypatch.setattr(scipy.integrate, "DOP853", Recording)
        x_T = np.random.default_rng(4).normal(size=(2, 16))
        if fail:
            with pytest.raises(ZeroDivisionError, match="forced"):
                _reference_batch(standard_test_mixture(), VP, x_T, -5.0, 3.0)
        else:
            _reference_batch(standard_test_mixture(), VP, x_T, -5.0, 3.0)
        assert sizes[0] == caller_size and len(sizes) > 1 and set(sizes[1:]) == {256}
        assert np.getbufsize() == caller_size

    @pytest.mark.parametrize("fail", [False, True], ids=["finishes", "step-raises"])
    def test_evaluate_schedules_restores(self, monkeypatch, caller_size, fail):
        if fail:
            def predict(*args):
                raise ZeroDivisionError("forced")

            monkeypatch.setattr(simulator, "_posterior_mean", predict)
        grid = uniform_lambda_grid(VP, 5, 1.0, 1e-3)
        args = (standard_test_mixture(), VP, [grid], OrderSchedule.warmup(5, 3), "lagrange", 16, 1)
        if fail:
            with pytest.raises(ZeroDivisionError, match="forced"):
                evaluate_schedules(*args)
        else:
            evaluate_schedules(*args)
        assert np.getbufsize() == caller_size

import math
import re

import numpy as np
import pytest

from stepopt.schedules import (
    DomainError,
    LambdaGrid,
    NoiseSchedule,
    edm_grid,
    scheme_grid,
    uniform_lambda_grid,
    uniform_t_grid,
)

VE = NoiseSchedule.from_name("ve-edm")
VP_LINEAR = NoiseSchedule.from_name("vp-linear")
VP_COSINE = NoiseSchedule.from_name("vp-cosine")

ALL_FAMILIES = [
    (VP_LINEAR, 1e-5, 1.0),
    (VP_COSINE, 1e-5, 0.992),
    (VE, 0.002, 80.0),
]


class TestLambdaOfT:
    def test_ve_at_one(self):
        assert float(VE.lambda_of_t(1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_ve_at_eighty(self):
        # high-precision evaluation of -log(80)
        assert float(VE.lambda_of_t(80.0)) == pytest.approx(-4.382026634673881, abs=1e-12)

    def test_vp_linear_zero_where_alpha_equals_sigma(self):
        t_star = float(VP_LINEAR.t_of_lambda(0.0))
        alpha, sigma = float(VP_LINEAR.alpha(t_star)), float(VP_LINEAR.sigma(t_star))
        assert alpha == pytest.approx(sigma, rel=1e-10)
        assert float(VP_LINEAR.lambda_of_t(t_star)) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("schedule,lo,hi", ALL_FAMILIES)
    def test_strictly_decreasing(self, schedule, lo, hi):
        t = np.linspace(lo, hi, 1000)
        lam = schedule.lambda_of_t(t)
        assert np.all(np.diff(lam) < 0)

    def test_domain_error_outside_range(self):
        with pytest.raises(DomainError, match=r"domain \(0\.0, 1\.0\] of vp-linear"):
            VP_LINEAR.lambda_of_t(1.5)
        with pytest.raises(DomainError):
            VP_COSINE.lambda_of_t(0.0)  # unbounded log-SNR
        # ve-edm's lower end is in its domain
        with pytest.raises(DomainError, match=r"domain \[0\.002, 80\.0\] of ve-edm"):
            VE.lambda_of_t(100.0)


class TestTOfLambda:
    def test_ve_inverse_at_zero(self):
        assert float(VE.t_of_lambda(0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_ve_inverse_near_eps(self):
        # exp(-6.21461) = 0.0019999962..., clipped onto the domain boundary
        assert float(VE.t_of_lambda(6.21461)) == pytest.approx(0.002, abs=1e-8)

    @pytest.mark.parametrize("schedule,lo,hi", ALL_FAMILIES)
    def test_round_trip(self, schedule, lo, hi):
        rng = np.random.default_rng(101)
        t = rng.uniform(lo, hi, 1000)
        back = schedule.t_of_lambda(schedule.lambda_of_t(t))
        assert np.max(np.abs(back - t) / t) < 1e-10

    @pytest.mark.parametrize("schedule,lo,hi", ALL_FAMILIES)
    def test_lambda_round_trip_to_high_log_snr(self, schedule, lo, hi):
        lam_min, lam_max = schedule.lambda_domain
        lam = np.linspace(lam_min, min(16.0, lam_max), 2000)
        back = schedule.lambda_of_t(schedule.t_of_lambda(lam))
        assert np.max(np.abs(back - lam)) <= 1e-7

    @pytest.mark.parametrize("schedule,lo,hi", ALL_FAMILIES)
    def test_inverse_strictly_decreasing(self, schedule, lo, hi):
        # decreasing, and in order with the forward map: mapped back, each
        # node stays within half a spacing of where it was, so inverse
        # nodes and forward-mapped endpoints of a grid interleave correctly
        lam_min, lam_max = schedule.lambda_domain
        lam = np.linspace(lam_min, min(16.0, lam_max), 201)
        t = schedule.t_of_lambda(lam)
        assert np.all(np.diff(t) < 0)
        back = schedule.lambda_of_t(t)
        assert np.max(np.abs(back - lam)) < 0.5 * (lam[1] - lam[0])

    @pytest.mark.parametrize("schedule", [
        *(NoiseSchedule.from_name("vp-cosine", cosine_shift=s)
          for s in (1e-4, 1e-8, 1e-12, 1000.0)),
        NoiseSchedule.from_name("vp-linear", beta_min=1e-6, beta_max=1e-5),
        NoiseSchedule.from_name("vp-linear", beta_min=1e-3, beta_max=1e6),
    ], ids=["cosine-1e-4", "cosine-1e-8", "cosine-1e-12", "cosine-1000",
            "linear-1e-6-1e-5", "linear-1e-3-1e6"])
    def test_round_trips_over_the_whole_domain(self, schedule):
        # down to t = 1e-300; at a cosine shift of 1e-8 the inverse map used
        # to miss t by 16 % and turn back, and at 1e-12 it divided 0 by 0
        hi = schedule.t_domain[1]
        rng = np.random.default_rng(2024)
        t = np.concatenate([
            np.geomspace(1e-300, hi, 20001), 10.0 ** rng.uniform(-300, math.log10(hi), 20000),
            rng.uniform(0.0, hi, 20000),
        ])
        lam = schedule.lambda_of_t(t)
        back = schedule.t_of_lambda(lam)
        assert np.max(np.abs(back - t) / t) <= 1e-12
        lam = np.linspace(schedule.lambda_domain[0], float(schedule.lambda_of_t(1e-300)), 20001)
        t = schedule.t_of_lambda(lam)
        assert np.all(np.diff(t) <= 0)
        back = schedule.lambda_of_t(t)
        assert np.max(np.abs(back - lam) / np.maximum(1.0, np.abs(lam))) <= 1e-12

    @pytest.mark.parametrize("schedule", [VP_LINEAR, VP_COSINE, VE], ids=lambda s: s.name)
    def test_nan_is_a_domain_error(self, schedule):
        # NaN fails every comparison, so a check that looks for out-of-range values lets it through
        with pytest.raises(DomainError):
            schedule.t_of_lambda(np.nan)
        with pytest.raises(DomainError):
            schedule.t_of_lambda(np.array([0.0, np.nan]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            VE.t_of_lambda(10.0)
        with pytest.raises(DomainError):
            VE.t_of_lambda(-5.0)


@pytest.mark.parametrize("schedule,lo,hi", ALL_FAMILIES)
def test_vp_identity_and_positivity(schedule, lo, hi):
    rng = np.random.default_rng(7)
    t = rng.uniform(lo, hi, 1000)
    alpha, sigma = schedule.alpha(t), schedule.sigma(t)
    assert np.all(alpha > 0) and np.all(sigma > 0)
    if schedule.is_vp:
        assert np.max(np.abs(alpha**2 + sigma**2 - 1.0)) < 1e-12


def test_alpha_sigma_of_lambda_consistent():
    rng = np.random.default_rng(3)
    for schedule, lo, hi in ALL_FAMILIES:
        t = rng.uniform(lo, hi, 50)
        lam = schedule.lambda_of_t(t)
        alpha, sigma = schedule.alpha_sigma_of_lambda(lam)
        assert np.allclose(alpha, schedule.alpha(t), rtol=1e-10)
        assert np.allclose(sigma, schedule.sigma(t), rtol=1e-10)


class TestUniformTGrid:
    def test_two_steps(self):
        grid = uniform_t_grid(VP_LINEAR, 2, 1.0, 0.001)
        assert np.allclose(grid.t, [1.0, 0.5005, 0.001], atol=1e-15)

    def test_single_step_endpoints(self):
        grid = uniform_t_grid(VP_LINEAR, 1, 0.9, 0.01)
        assert grid.t.tolist() == [0.9, 0.01]

    def test_ve_midpoint(self):
        grid = uniform_t_grid(VE, 2, 80.0, 0.002)
        assert grid.t[1] == pytest.approx(40.001, abs=1e-12)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            uniform_t_grid(VP_LINEAR, 2, 0.001, 1.0)


class TestUniformLambdaGrid:
    def test_ve_geometric_mean(self):
        grid = uniform_lambda_grid(VE, 2, 80.0, 0.002)
        assert grid.t[1] == pytest.approx(math.sqrt(80.0 * 0.002), rel=1e-12)

    def test_single_step(self):
        grid = uniform_lambda_grid(VP_LINEAR, 1, 1.0, 0.001)
        lam_T = float(VP_LINEAR.lambda_of_t(1.0))
        lam_eps = float(VP_LINEAR.lambda_of_t(0.001))
        assert grid.lam.tolist() == [lam_T, lam_eps]

    def test_vp_cosine_down_to_tiny_eps(self):
        grid = uniform_lambda_grid(VP_COSINE, 20, 0.992, 1e-9)
        assert np.all(np.diff(grid.t) < 0)

    def test_ve_geometric_progression(self):
        grid = uniform_lambda_grid(VE, 4, 80.0, 0.002)
        ratios = grid.t[1:] / grid.t[:-1]
        assert np.max(np.abs(ratios - (0.002 / 80.0) ** 0.25)) < 1e-12


class TestEdmGrid:
    def test_ve_midpoint_rho7(self):
        grid = edm_grid(VE, 2, 80.0, 0.002, 7)
        # direct evaluation: ((80^(1/7) + 0.002^(1/7)) / 2)^7
        expect = ((80.0 ** (1 / 7) + 0.002 ** (1 / 7)) / 2.0) ** 7
        assert expect == pytest.approx(2.515218976147159, rel=1e-12)
        assert grid.t[1] == pytest.approx(expect, rel=1e-10)

    def test_rho_one_is_uniform_in_kappa(self):
        grid = edm_grid(VP_LINEAR, 5, 1.0, 0.01, 1)
        kappa = np.exp(-VP_LINEAR.lambda_of_t(grid.t))
        assert np.max(np.abs(np.diff(kappa, 2))) < 1e-10 * kappa[0]

    def test_single_step(self):
        grid = edm_grid(VE, 1, 80.0, 0.002, 7)
        assert grid.t.tolist() == [80.0, 0.002]

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            edm_grid(VE, 4, 80.0, 0.002, 0)

    @pytest.mark.parametrize(
        "schedule,T", [(VP_LINEAR, 1.0), (VP_COSINE, 0.992)], ids=["vp-linear", "vp-cosine"]
    )
    def test_tiny_eps_takes_no_log_of_zero(self, schedule, T):
        # at eps = 1e-300 the last node's root rounds to exactly 0
        with np.errstate(divide="raise"):
            grid = edm_grid(schedule, 5, T, 1e-300, 7)
        assert np.all(np.diff(grid.lam) > 0)
        assert grid.lam[-1] == float(schedule.lambda_of_t(1e-300))


@pytest.mark.parametrize("builder", [uniform_t_grid, uniform_lambda_grid, edm_grid])
@pytest.mark.parametrize("schedule,lo,hi", ALL_FAMILIES)
def test_grid_invariants_all_step_counts(builder, schedule, lo, hi):
    rng = np.random.default_rng(17)
    for N in range(1, 65):
        T, eps = sorted(rng.uniform(lo, hi, 2), reverse=True)
        while T - eps < 1e-3 * (hi - lo):
            T, eps = sorted(rng.uniform(lo, hi, 2), reverse=True)
        grid = builder(schedule, N, T, eps)
        assert grid.n_steps == N
        assert np.all(np.diff(grid.lam) > 0)
        assert np.all(np.diff(grid.t) < 0)
        assert grid.t[0] == T and grid.t[-1] == eps


def test_grid_validation():
    with pytest.raises(ValueError):
        LambdaGrid(lam=np.array([0.0, 1.0]), t=np.array([1.0, 2.0]), T=1.0, eps=2.0)
    with pytest.raises(ValueError):
        LambdaGrid(lam=np.array([1.0, 0.0]), t=np.array([2.0, 1.0]), T=2.0, eps=1.0)
    with pytest.raises(ValueError):
        LambdaGrid(lam=np.array([0.0]), t=np.array([1.0]), T=1.0, eps=1.0)
    with pytest.raises(ValueError, match="unknown grid scheme"):
        scheme_grid("uniform-sigma", VP_LINEAR, 2, 1.0, 1e-3, 7)


@pytest.mark.parametrize("name,params", [
    ("vp-linear", {"cosine_shift": 0.02}), ("vp-linear", {"cosine_shift": math.nan}),
    ("vp-cosine", {"beta_min": 0.2}), ("ve-edm", {"beta_max": 5.0, "cosine_shift": 0.02}),
], ids=["linear-shift", "linear-shift-nan", "cosine-beta-min", "edm-two"])
def test_parameter_of_another_family_is_rejected(name, params):
    # such a value used to be kept and ignored by every map
    with pytest.raises(ValueError, match=re.escape(f"{sorted(params)} do not apply to {name}")):
        NoiseSchedule.from_name(name, **params)


def test_parameters_are_those_off_their_defaults():
    assert NoiseSchedule.from_name("vp-linear").parameters == {}
    assert NoiseSchedule.from_name("vp-linear", beta_max=10.0).parameters == {"beta_max": 10.0}
    cosine = NoiseSchedule.from_name("vp-cosine", cosine_shift=0.02)
    assert cosine.parameters == {"cosine_shift": 0.02}
    # a foreign parameter at its default is no change
    assert NoiseSchedule.from_name("ve-edm", beta_min=0.1).parameters == {}


def test_from_name_round_trip():
    for name in ("vp-linear", "vp-cosine", "ve-edm"):
        assert NoiseSchedule.from_name(name).name == name
    with pytest.raises(ValueError):
        NoiseSchedule.from_name("nope")

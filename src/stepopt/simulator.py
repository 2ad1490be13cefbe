"""Desk-scale validation against analytic-score models.

A Gaussian-mixture data distribution admits a closed-form posterior-mean
prediction at every noise level, so the multistep sampler can run
without any learned network and its terminal output can be compared to
an exact (single Gaussian) or high-accuracy adaptive (mixture)
reference solution of the underlying probability-flow ODE.

All dynamics are integrated in the half log-SNR variable, where the
flow is smooth for every schedule family:

    dx/dlam = dlog(sigma)/dlam * x + alpha(lam) * prediction(x, lam)

with ``dlog(sigma)/dlam`` equal to ``-alpha^2`` for variance-preserving
schedules and ``-1`` for variance-exploding ones.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853

from .schedules import LambdaGrid, NoiseSchedule
from .weights import OrderSchedule, step_weight_array

__all__ = [
    "AnalyticModel",
    "SamplerRun",
    "SimulationReport",
    "data_prediction",
    "multistep_sample",
    "reference_solution",
    "evaluate_schedules",
    "standard_test_mixture",
    "load_model",
    "model_from_dict",
]

MAX_DIM = 16


@dataclass(frozen=True)
class AnalyticModel:
    """Isotropic Gaussian mixture serving as the data distribution."""

    pis: np.ndarray  # (K,) mixture weights, sum to 1
    mus: np.ndarray  # (K, dim) component means
    stds: np.ndarray  # (K,) isotropic standard deviations

    def __post_init__(self):
        pis = np.asarray(self.pis, dtype=float)
        mus = np.atleast_2d(np.asarray(self.mus, dtype=float))
        stds = np.asarray(self.stds, dtype=float)
        object.__setattr__(self, "pis", pis)
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "stds", stds)
        if not (pis.ndim == 1 and stds.ndim == 1 and mus.ndim == 2):
            raise ValueError("expected shapes (K,), (K, dim), (K,)")
        if not pis.size == stds.size == mus.shape[0]:
            raise ValueError("component counts disagree")
        if abs(float(pis.sum()) - 1.0) > 1e-12 or np.any(pis < 0):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if not all(np.all(np.isfinite(arr)) for arr in (pis, mus, stds)):
            raise ValueError("mixture weights, means and standard deviations must be finite")
        if np.any(stds <= 0):
            raise ValueError("component standard deviations must be positive")
        if not 1 <= mus.shape[1] <= MAX_DIM:
            raise ValueError(f"dimension must lie in [1, {MAX_DIM}]")
        for arr in (pis, mus, stds):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mus.shape[1]

    @property
    def n_components(self) -> int:
        return self.pis.size

    def second_moment_per_dim(self) -> float:
        """Average of E||x_0||^2 / dim over the mixture."""
        return float(
            np.sum(self.pis * (np.sum(self.mus**2, axis=1) / self.dim + self.stds**2))
        )


@dataclass(frozen=True)
class SamplerRun:
    """One sampling configuration: grid, orders, polynomial kind, model, seeds."""

    grid: LambdaGrid
    orders: OrderSchedule
    polynomial_kind: str
    model: AnalyticModel
    schedule: NoiseSchedule
    seeds: int = 1

    def __post_init__(self):
        if self.seeds < 1:
            raise ValueError("need at least one seed")
        if len(self.orders) != self.grid.n_steps:
            raise ValueError("order schedule does not match the grid")


@dataclass(frozen=True)
class SimulationReport:
    mean_l2_error: float
    median_l2_error: float
    per_seed_errors: np.ndarray
    schedule_label: str

    def to_dict(self) -> dict:
        return {
            "label": self.schedule_label,
            "mean_l2": self.mean_l2_error,
            "median_l2": self.median_l2_error,
            "seeds": int(self.per_seed_errors.size),
        }


def standard_test_mixture() -> AnalyticModel:
    """Fixed two-component planar mixture used by the packaged experiments.

    Multimodal enough that step placement matters, smooth enough that
    reference solutions converge quickly.
    """
    return AnalyticModel(
        pis=np.array([0.5, 0.5]),
        mus=np.array([[2.0, 2.0], [-2.0, -2.0]]),
        stds=np.array([0.5, 0.5]),
    )


def model_from_dict(payload: dict) -> AnalyticModel:
    """Model from its JSON form; values keep their JSON types, nothing is coerced."""
    comps = payload["components"]
    for c in comps:
        # bool is an int subclass, so compare types exactly
        if type(c["mu"]) is not list or any(
            type(v) not in (int, float) for v in (c["pi"], c["s"], *c["mu"])
        ):
            raise ValueError("pi, s and the entries of mu must be numbers")
    if "dim" in payload and type(payload["dim"]) is not int:
        raise ValueError(f"dim must be an integer, got {payload['dim']!r}")
    model = AnalyticModel(
        pis=np.array([c["pi"] for c in comps]),
        mus=np.array([c["mu"] for c in comps]),
        stds=np.array([c["s"] for c in comps]),
    )
    if "dim" in payload and payload["dim"] != model.dim:
        raise ValueError(
            f"declared dimension {payload['dim']} does not match means of dim {model.dim}"
        )
    return model


def load_model(path) -> AnalyticModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def _posterior_mean(model: AnalyticModel, x: np.ndarray, alpha: float, sigma: float) -> np.ndarray:
    """Exact E[x_0 | x] under the mixture at coefficients (alpha, sigma).

    Takes and returns the dim-major (dim, S) layout, one row per
    coordinate with the draws along it; a C-contiguous ``x`` is fastest.
    The squared distances ``|x|^2 - 2 alpha x.mu + alpha^2 |mu|^2`` come
    from one ``mus @ x`` on the (K, S) layout, and the log-sum-exp and
    the normalisation reduce over axis 0, so every pass runs along the
    long draw axis and no (S, K, dim) temporary is built.  numpy
    reductions and broadcasts over a short trailing axis cost far more
    than the arithmetic they do.  Component responsibilities are
    evaluated in log space and combined by log-sum-exp, so widely
    separated components cannot underflow.  The returned array is new,
    so callers may update it in place.
    """
    mus = model.mus
    s2 = model.stds**2
    var = alpha * alpha * s2 + sigma * sigma  # (K,)
    log_r = mus @ x  # (K, S)
    log_r *= 2.0 * alpha
    np.subtract(np.einsum("ij,ij->j", x, x), log_r, out=log_r)
    log_r += (alpha * alpha * np.einsum("ij,ij->i", mus, mus))[:, None]
    # log_r holds the squared distances until the next two lines
    log_r *= (0.5 / var)[:, None]
    np.subtract(
        (np.log(np.maximum(model.pis, 1e-300)) - 0.5 * model.dim * np.log(var))[:, None],
        log_r,
        out=log_r,
    )
    log_r -= log_r.max(axis=0)
    r = np.exp(log_r, out=log_r)
    r /= r.sum(axis=0)
    r /= var[:, None]  # responsibilities over each component's variance
    # sum_k r_k (alpha s_k^2 x + sigma^2 mu_k) / var_k
    out = mus.T @ r
    out *= sigma * sigma
    coef = s2 @ r
    coef *= alpha
    out += coef * x
    return out


def data_prediction(model: AnalyticModel, x, schedule: NoiseSchedule, t) -> np.ndarray:
    """Posterior-mean prediction of the clean datum from a noisy state."""
    alpha = float(schedule.alpha(t))
    sigma = float(schedule.sigma(t))
    x = np.asarray(x, dtype=float)
    out = _posterior_mean(model, np.ascontiguousarray(np.atleast_2d(x).T), alpha, sigma).T
    return out if x.ndim == 2 else out[0]


def _sample_batch(
    grid: LambdaGrid,
    orders: OrderSchedule,
    kind: str,
    schedule: NoiseSchedule,
    predict,
    x_start: np.ndarray,
) -> np.ndarray:
    """Run the multistep update on a batch of start states.

    ``predict(x, lam, alpha, sigma)`` returns the prediction batch at one
    node, in the layout of ``x_start``; the simulator passes dim-major
    (dim, S) batches, and the state is kept C-contiguous.  Each step's
    weights are scaled with the step's own endpoint as anchor, so the
    per-step coefficient of each prediction is simply alpha at the new
    node times the stored weight.
    """
    lam = grid.lam
    n_steps = grid.n_steps
    alphas, sigmas = schedule.alpha_sigma_of_lambda(lam)
    w = step_weight_array(lam, orders, kind, lam[1:])
    x = np.array(x_start, dtype=float, order="C")
    history: list[np.ndarray] = []
    for n in range(1, n_steps + 1):
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"sampler state non-finite entering step {n}")
        history.append(predict(x, lam[n - 1], float(alphas[n - 1]), float(sigmas[n - 1])))
        k = orders.k[n - 1]
        x = (sigmas[n] / sigmas[n - 1]) * x
        for j in range(k):
            x += alphas[n] * w[n - 1, j] * history[n - k + j]
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"sampler state non-finite after step {n_steps}")
    return x


def multistep_sample(run: SamplerRun, x_T) -> np.ndarray:
    """Terminal state of the multistep solver started from ``x_T``."""
    x_T = np.asarray(x_T, dtype=float)

    def predict(x, lam, alpha, sigma):
        return _posterior_mean(run.model, x, alpha, sigma)

    out = _sample_batch(
        run.grid, run.orders, run.polynomial_kind, run.schedule, predict, np.atleast_2d(x_T).T
    ).T
    return out if x_T.ndim == 2 else out[0]


def _reference_batch(
    model: AnalyticModel,
    schedule: NoiseSchedule,
    x_start: np.ndarray,
    lam_T: float,
    lam_eps: float,
) -> np.ndarray:
    """Probability-flow solution for a dim-major (dim, S) batch.

    Single Gaussians use the exact closed form; mixtures integrate the
    flattened (dim, S) state with scipy's DOP853, an adaptive explicit
    Runge-Kutta method of order 8, at rtol 1e-10 and atol 1e-13.  The
    solver is stepped directly and only its final state is kept.  Every
    right-hand-side call costs one posterior mean over the whole batch,
    into whose output the rest of the right-hand side is folded in
    place, and at this tolerance DOP853 needs about half as many calls
    as the 4th/5th order RK45.
    """
    if model.n_components == 1:
        alpha_T, sigma_T = (float(v) for v in schedule.alpha_sigma_of_lambda(lam_T))
        alpha_e, sigma_e = (float(v) for v in schedule.alpha_sigma_of_lambda(lam_eps))
        s = float(model.stds[0])
        mu = model.mus[0]
        hat_T = np.sqrt(alpha_T**2 * s**2 + sigma_T**2)
        hat_e = np.sqrt(alpha_e**2 * s**2 + sigma_e**2)
        return alpha_e * mu[:, None] + (hat_e / hat_T) * (x_start - alpha_T * mu[:, None])

    shape = x_start.shape

    def rhs(lam, y):
        x = y.reshape(shape)
        alpha, sigma = (float(v) for v in schedule.alpha_sigma_of_lambda(lam))
        dlog_sigma = -1.0 if schedule.family == "ve_edm" else -alpha**2
        dx = _posterior_mean(model, x, alpha, sigma)
        dx *= alpha
        dx += dlog_sigma * x
        return dx.ravel()

    solver = DOP853(rhs, lam_T, x_start.ravel(), lam_eps, rtol=1e-10, atol=1e-13)
    while solver.status == "running":
        message = solver.step()  # None unless the step failed
    y = solver.y
    # The solver keeps itself in a reference cycle (closures over itself)
    # holding about 1 MB of stage arrays at 4096 x 2 draws.  A solve leaves
    # few other gc-tracked objects behind, so the solver is normally still
    # in the young generation, whose collection takes about 0.1 ms; left to
    # the cyclic collector, such garbage piles up in a long-lived process.
    del solver
    gc.collect(0)
    if message is not None:
        raise RuntimeError(f"reference integration failed: {message}")
    return y.reshape(shape)


def reference_solution(model: AnalyticModel, schedule: NoiseSchedule, x_T, T: float, eps: float) -> np.ndarray:
    """Ground-truth terminal state of the probability flow started at ``x_T``."""
    x_T = np.asarray(x_T, dtype=float)
    lam_T = float(schedule.lambda_of_t(T))
    lam_eps = float(schedule.lambda_of_t(eps))
    out = _reference_batch(model, schedule, np.atleast_2d(x_T).T, lam_T, lam_eps).T
    return out if x_T.ndim == 2 else out[0]


def evaluate_schedules(
    model: AnalyticModel,
    schedule: NoiseSchedule,
    schedules: list[LambdaGrid],
    orders: OrderSchedule,
    kind: str,
    seeds: int,
    rng_seed: int,
    labels: list[str] | None = None,
) -> list[SimulationReport]:
    """Compare terminal errors of several grids on identical start states.

    Start states are drawn from a zero-mean Gaussian whose variance
    matches the model's marginal second moment at the start time, so
    prior mismatch does not pollute the comparison.  The reference is
    computed once per draw and shared by all grids.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    if labels is not None and len(labels) != len(schedules):
        raise ValueError(f"{len(labels)} labels given for {len(schedules)} grids")
    if not schedules:
        return []
    first = schedules[0]
    for g in schedules[1:]:
        same = (
            np.isclose(g.T, first.T, rtol=1e-12, atol=0)
            and np.isclose(g.eps, first.eps, rtol=1e-12, atol=0)
            and np.isclose(g.lam[0], first.lam[0], rtol=1e-12, atol=1e-12)
            and np.isclose(g.lam[-1], first.lam[-1], rtol=1e-12, atol=1e-12)
        )
        if not same:
            raise ValueError("all grids must share the same endpoints")
    if labels is None:
        labels = [f"schedule-{i}" for i in range(len(schedules))]

    lam_T, lam_eps = float(first.lam[0]), float(first.lam[-1])
    alpha_T, sigma_T = (float(v) for v in schedule.alpha_sigma_of_lambda(lam_T))
    marginal_std = np.sqrt(alpha_T**2 * model.second_moment_per_dim() + sigma_T**2)
    rng = np.random.default_rng(rng_seed)
    x_T = marginal_std * rng.standard_normal((seeds, model.dim))
    x_T = np.array(x_T.T, order="C")  # dim-major; a transposed view would keep draw-major memory

    x_ref = _reference_batch(model, schedule, x_T, lam_T, lam_eps)

    def predict(x, lam, alpha, sigma):
        return _posterior_mean(model, x, alpha, sigma)

    reports = []
    for grid, label in zip(schedules, labels):
        x_out = _sample_batch(grid, orders, kind, schedule, predict, x_T)
        errors = np.linalg.norm(x_out - x_ref, axis=0)
        reports.append(
            SimulationReport(
                mean_l2_error=float(np.mean(errors)),
                median_l2_error=float(np.median(errors)),
                per_seed_errors=errors,
                schedule_label=label,
            )
        )
    return reports

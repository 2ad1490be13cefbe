"""Desk-scale validation against analytic-score models.

A Gaussian-mixture data distribution admits a closed-form posterior-mean
prediction at every noise level, so the multistep sampler can run
without any learned network and its terminal output can be compared to
an exact (single Gaussian) or high-accuracy adaptive (mixture)
reference solution of the underlying probability-flow ODE.  On a single
Gaussian the prediction is affine in the state, and both the sampler's
prediction and the reference take that form directly.

All dynamics are integrated in the half log-SNR variable, where the
flow is smooth for every schedule family:

    dx/dlam = dlog(sigma)/dlam * x + alpha(lam) * prediction(x, lam)

with ``dlog(sigma)/dlam`` equal to ``-alpha^2`` for every family
(alpha is 1 on ve-edm, so there it is -1).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .schedules import LambdaGrid, NoiseSchedule
from .weights import OrderSchedule, step_weight_array

__all__ = [
    "AnalyticModel",
    "SamplerRun",
    "SimulationReport",
    "data_prediction",
    "multistep_sample",
    "non_finite_message",
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

    @functools.cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """s_k^2, |mu_k|^2 and log pi_k, the posterior mean's per-component
        constants, each of shape (K, 1, 1)."""
        mus = self.mus
        mu2 = np.einsum("ij,ij->i", mus, mus)
        terms = self.stds**2, mu2, np.log(np.maximum(self.pis, 1e-300))
        return tuple(v[:, None, None] for v in terms)

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
    # first step entered with a non-finite state, N + 1 if only the final
    # state is; the errors of such a grid are inf
    diverged_step: int | None = None


def standard_test_mixture() -> AnalyticModel:
    """Fixed two-component planar mixture, as in the README's library example.

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


def _posterior_mean(
    model: AnalyticModel, x: np.ndarray, alpha: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Exact E[x_0 | x] under the mixture, for G grids at once.

    ``x`` is the dim-major (dim, G, S) state, one row per coordinate with
    grid g's S draws in ``x[:, g]``, and must be C-contiguous; grid g is
    at coefficients ``(alpha[g], sigma[g])``, both of shape (G,).  With
    ``var_k = alpha^2 s_k^2 + sigma^2`` the mean is

        sum_k r_k (alpha s_k^2 x + sigma^2 mu_k) / var_k

    with responsibilities ``r_k`` summing to 1.  One component has r = 1,
    so its mean is affine in x and is formed directly, with the float
    operations the mixture path applies at r = 1: bitwise the same, and
    finite far beyond where the squared distances overflow (|x| of about
    1e154).  For mixtures the
    squared distances ``|x|^2 - 2 alpha x.mu + alpha^2 |mu|^2`` come from
    one ``mus @ x`` over all G * S draws on the (K, G * S) layout, and the
    log-sum-exp and the normalisation reduce over axis 0, so every pass
    runs along the long draw axis and no (S, K, dim) temporary is built.
    numpy reductions and broadcasts over a short trailing axis cost far
    more than the arithmetic they do.  The per-grid coefficients scale
    (K, G, S) views, so each grid gets the float operations it would get
    alone.  Component responsibilities are evaluated in log space and
    combined by log-sum-exp, so widely separated components cannot
    underflow.  The returned array is new, so callers may update it in
    place.
    """
    s2, mu2, log_pi = model._terms
    a = alpha[:, None]  # (G, 1): one coefficient per (G, S) block of draws
    a2 = a * a
    sigma2 = sigma[:, None] * sigma[:, None]
    var = s2 * a2 + sigma2  # (K, G, 1)
    if model.pis.size == 1:
        # the mixture kernel's float operations at r = 1, without the distances
        inv_var = 1.0 / var
        out = model.mus[0][:, None, None] * inv_var
        out *= sigma2
        coef = s2 * inv_var
        coef *= a
        return out + coef * x
    dim, G, S = x.shape
    flat = x.reshape(dim, G * S)
    mus = model.mus
    log_r = mus @ flat  # (K, G * S)
    by_grid = log_r.reshape(-1, G, S)
    by_grid *= 2.0 * a
    np.subtract(np.einsum("ij,ij->j", flat, flat), log_r, out=log_r)
    by_grid += mu2 * a2
    # log_r holds the squared distances until the next two lines
    by_grid *= 0.5 / var
    np.subtract(
        log_pi - 0.5 * model.dim * np.log(var),
        by_grid,
        out=by_grid,
    )
    log_r -= log_r.max(axis=0)
    r = np.exp(log_r, out=log_r)
    r /= r.sum(axis=0)
    by_grid /= var  # responsibilities over each component's variance
    # sum_k r_k (alpha s_k^2 x + sigma^2 mu_k) / var_k
    out = (mus.T @ r).reshape(dim, G, S)
    out *= sigma2
    coef = (s2.ravel() @ r).reshape(G, S)
    coef *= a
    out += coef * x
    return out


def _on_draws(batch, x) -> np.ndarray:
    """``batch`` of the dim-major (dim, S) layout, applied to a draw-major state.

    ``x`` is one state of shape (dim,) or a batch of shape (S, dim); the
    result has the same shape.
    """
    x = np.asarray(x, dtype=float)
    out = batch(np.ascontiguousarray(np.atleast_2d(x).T)).T
    return out if x.ndim == 2 else out[0]


def data_prediction(model: AnalyticModel, x, schedule: NoiseSchedule, t) -> np.ndarray:
    """Posterior-mean prediction of the clean datum from a noisy state."""
    lam = schedule.lambda_of_t(t)
    alpha, sigma = (np.reshape(v, 1) for v in schedule.alpha_sigma_of_lambda(lam))
    return _on_draws(lambda xb: _posterior_mean(model, xb[:, None], alpha, sigma)[:, 0], x)


@contextlib.contextmanager
def _short_ufunc_buffer():
    """numpy's ufunc buffer at 256 elements, restored on every exit: numpy 2.4
    copies a stride-0 operand into its 8192-element buffer, 2-3x slower than a scalar."""
    old = np.setbufsize(256)
    try:
        yield
    finally:
        np.setbufsize(old)


def _sample_batch(
    lam: np.ndarray,
    orders: OrderSchedule,
    kind: str,
    schedule: NoiseSchedule,
    predict,
    x_start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the multistep update on G grids at once.

    ``lam`` is a (G, N + 1) stack of log-SNR grids that share ``orders``,
    and ``x_start`` the dim-major (dim, G, S) start states, grid g's S
    draws in ``x_start[:, g]``; the state is kept C-contiguous.
    ``predict(x, alpha, sigma)`` returns the prediction for the whole
    state, with grid g at coefficients ``(alpha[g], sigma[g])``; the
    simulator passes ``functools.partial(_posterior_mean, model)``.  One
    coefficient call and one weight call cover the stack.  The weights
    are by age: column d of step n multiplies the prediction at node
    ``lam[n-1-d]``, ``history[-1 - d]``, added oldest first.  Each step's
    weights are scaled with the step's own endpoint as anchor, so the
    per-step coefficient of each prediction is simply alpha at the new
    node times the stored weight; these are formed once, before the
    loop, with the float operations of one grid alone.  Only the last
    ``max(orders.k)`` predictions are kept.  Returns the final state and,
    per grid, the first step entered with a non-finite state (``N + 1``
    if only the final state is, 0 if none); a grid that goes non-finite
    does not stop the others, whose states are those they get alone.
    The loop runs under one ``np.errstate(all="ignore")``: any overflow
    that matters leaves a non-finite state, which the next check records,
    so no caller's floating-point setting can fail the pass for one grid.
    It runs under :func:`_short_ufunc_buffer` too, and the weights, whose
    narrow-interval sums the buffer size blocks, are formed before it.
    """
    n_steps = lam.shape[1] - 1
    alphas, sigmas = schedule.alpha_sigma_of_lambda(lam)
    w = step_weight_array(lam, orders, kind, lam[:, 1:])
    # per step, shaped to broadcast against the (dim, G, S) state
    ratio = (sigmas[:, 1:] / sigmas[:, :-1]).T[:, :, None]  # (N, G, 1)
    coef = (alphas[:, 1:, None] * w).transpose(1, 2, 0)[..., None]  # (N, max order, G, 1)
    x = np.array(x_start, dtype=float, order="C")
    entered = np.zeros(lam.shape[0], dtype=int)
    history: deque[np.ndarray] = deque(maxlen=max(orders.k))
    with np.errstate(all="ignore"), _short_ufunc_buffer():
        for n in range(1, n_steps + 2):  # the last pass only checks the final state
            if not np.isfinite(x).all():
                entered[(entered == 0) & ~np.isfinite(x).all(axis=(0, 2))] = n
            if n > n_steps:
                break
            history.append(predict(x, alphas[:, n - 1], sigmas[:, n - 1]))
            k = orders.k[n - 1]
            x = ratio[n - 1] * x
            for d in range(k - 1, -1, -1):
                x += coef[n - 1, d] * history[-1 - d]
    return x, entered


def non_finite_message(step: int, n_steps: int, label: str | None = None) -> str:
    """The error for a sampler state first non-finite entering ``step`` (``N + 1``: after the last)."""
    where = f"entering step {step}" if step <= n_steps else f"after step {n_steps}"
    of = f" of grid {label!r}" if label is not None else ""
    return f"sampler state non-finite {where}{of}"


def multistep_sample(run: SamplerRun, x_T) -> np.ndarray:
    """Terminal state of the multistep solver started from ``x_T``.

    A non-finite state raises ``FloatingPointError`` naming the step.
    """
    predict = functools.partial(_posterior_mean, run.model)
    args = (run.grid.lam[None], run.orders, run.polynomial_kind, run.schedule, predict)

    def sample(x):
        out, entered = _sample_batch(*args, x[:, None])
        if entered[0]:
            raise FloatingPointError(non_finite_message(int(entered[0]), run.grid.n_steps))
        return out[:, 0]

    return _on_draws(sample, x_T)


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
    solver is stepped directly and only its final state is kept; at this
    tolerance DOP853 needs about half as many right-hand-side calls as
    the 4th/5th order RK45.

    The right-hand side has a flow kernel of its own.  With
    ``var_k = alpha^2 s_k^2 + sigma^2`` and responsibilities ``r_k``, the
    flow ``alpha D(x) - alpha^2 x`` of the posterior mean ``D`` is

        sum_k r_k (alpha sigma^2 mu_k - alpha^2 (sigma^2 - s_k^2 (1 - alpha^2)) x) / var_k
        / sum_k r_k

    so each call is two small products: the (K, dim + 2) per-lambda
    coefficients of ``log r_k`` times the features ``[x; |x|^2; 1]``,
    and, after the max shift and ``exp``, the (dim + 2, K) coefficients
    of ``mu_k`` and ``x`` and a row of ones times ``r``, which gives the
    unnormalised flow and ``sum_k r_k`` together; the flow is divided by
    that sum once.  ``1 - alpha^2`` comes from ``log alpha`` through
    ``expm1``, so the coefficient of ``x`` shrinks with ``sigma^2`` at
    large lambda, where ``alpha D(x)`` and ``alpha^2 x`` cancel.  Per call,
    the K-long factors are Python floats and the ``mu_k`` products two numpy
    calls, bitwise the array form, and the solver steps under
    :func:`_short_ufunc_buffer`; the sampler keeps :func:`_posterior_mean`.
    """
    if model.pis.size == 1:
        alpha_T, sigma_T = (float(v) for v in schedule.alpha_sigma_of_lambda(lam_T))
        alpha_e, sigma_e = (float(v) for v in schedule.alpha_sigma_of_lambda(lam_eps))
        s = float(model.stds[0])
        mu = model.mus[0]
        hat_T = np.sqrt(alpha_T**2 * s**2 + sigma_T**2)
        hat_e = np.sqrt(alpha_e**2 * s**2 + sigma_e**2)
        return alpha_e * mu[:, None] + (hat_e / hat_T) * (x_start - alpha_T * mu[:, None])

    # imported here, so that commands without a mixture reference start without scipy
    from scipy.integrate import DOP853

    dim, S = x_start.shape
    mus = model.mus
    s2, mu2, log_pi = (v.ravel().tolist() for v in model._terms)
    mu_factors = np.empty((2, mus.shape[0]))  # of mu_k in log_coef and in flow_coef
    log_coef = np.empty((mus.shape[0], dim + 2))  # alpha mu_k / var_k, -1 / (2 var_k), constant
    flow_coef = np.empty((dim + 2, mus.shape[0]))  # of mu_k and of x, over var_k; then 1
    flow_coef[-1] = 1.0
    features = np.empty((dim + 2, S))
    features[-1] = 1.0

    def rhs(lam, y):
        x = y.reshape(dim, S)
        log_alpha, log_sigma = (float(v) for v in schedule.log_alpha_sigma_of_lambda(lam))
        alpha, sigma2 = math.exp(log_alpha), math.exp(2.0 * log_sigma)
        a2, shrink, c = alpha * alpha, -math.expm1(2.0 * log_alpha), alpha * sigma2
        iv = [1.0 / (s * a2 + sigma2) for s in s2]
        mu_factors.ravel()[:] = [alpha * v for v in iv] + [c * v for v in iv]
        np.multiply(mus, mu_factors[0, :, None], out=log_coef[:, :dim])
        np.multiply(mus.T, mu_factors[1], out=flow_coef[:dim])
        log_coef[:, dim] = [-0.5 * v for v in iv]
        log_iv = np.log(iv).tolist()  # not math.log, which can differ in the last bit
        log_coef[:, dim + 1] = [p + 0.5 * dim * g - (0.5 * a2) * m * v
                                for p, g, m, v in zip(log_pi, log_iv, mu2, iv)]
        flow_coef[dim] = [(a2 * (s * shrink - sigma2)) * v for s, v in zip(s2, iv)]
        features[:dim] = x
        np.einsum("ij,ij->j", x, x, out=features[dim])
        r = log_coef @ features  # log-responsibilities, (K, S)
        r -= r.max(axis=0)
        np.exp(r, out=r)
        out = flow_coef @ r  # (dim + 2, S), the last row sum_k r_k
        flow = out[dim] * x
        flow += out[:dim]
        flow /= out[dim + 1]
        return flow.ravel()

    solver = DOP853(rhs, lam_T, x_start.ravel(), lam_eps, rtol=1e-10, atol=1e-13)
    with _short_ufunc_buffer():
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
    return y.reshape(x_start.shape)


def reference_solution(model: AnalyticModel, schedule: NoiseSchedule, x_T, T: float, eps: float) -> np.ndarray:
    """Ground-truth terminal state of the probability flow started at ``x_T``."""
    lam_T = float(schedule.lambda_of_t(T))
    lam_eps = float(schedule.lambda_of_t(eps))
    return _on_draws(lambda x: _reference_batch(model, schedule, x, lam_T, lam_eps), x_T)


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
    computed once per draw and shared by all grids.  The grids run in
    one stacked sampler pass, so each step makes one posterior-mean call
    for all of them; each grid's errors are those it gets alone, since
    the stack couples no grids.  A grid whose state goes non-finite gets
    infinite errors and its ``diverged_step``; the others are unaffected.
    A finite state's error is a ``hypot`` reduction, which squares
    nothing, so only an error (or mean) beyond the float range itself
    reads inf.
    Every grid must have ``len(orders)`` steps and the endpoints of the
    first.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    if labels is not None and len(labels) != len(schedules):
        raise ValueError(f"{len(labels)} labels given for {len(schedules)} grids")
    if not schedules:
        return []
    if labels is None:
        labels = [f"schedule-{i}" for i in range(len(schedules))]
    for grid, label in zip(schedules, labels):
        if grid.n_steps != len(orders):
            raise ValueError(
                f"grid {label!r} has {grid.n_steps} steps but the order schedule "
                f"covers {len(orders)}"
            )
    ends = np.array([(g.T, g.eps, g.lam[0], g.lam[-1]) for g in schedules])
    if not np.allclose(ends, ends[0], rtol=1e-12, atol=[0, 0, 1e-12, 1e-12]):
        raise ValueError("all grids must share the same endpoints")

    lam_T, lam_eps = ends[0, 2:].tolist()
    alpha_T, sigma_T = (float(v) for v in schedule.alpha_sigma_of_lambda(lam_T))
    marginal_std = np.sqrt(alpha_T**2 * model.second_moment_per_dim() + sigma_T**2)
    rng = np.random.default_rng(rng_seed)
    x_T = marginal_std * rng.standard_normal((seeds, model.dim))
    x_T = np.array(x_T.T, order="C")  # dim-major; a transposed view would keep draw-major memory

    x_ref = _reference_batch(model, schedule, x_T, lam_T, lam_eps)
    lam = np.stack([g.lam for g in schedules])
    x_start = np.repeat(x_T[:, None], len(schedules), axis=1)  # (dim, G, S)
    predict = functools.partial(_posterior_mean, model)
    x_out, entered = _sample_batch(lam, orders, kind, schedule, predict, x_start)
    # an error or mean beyond the float range reads inf, with no warning;
    # initial=0.0 seeds the reduction, so a 1-D error is |diff|, not diff
    with np.errstate(over="ignore", under="ignore"):
        errors = np.hypot.reduce(x_out - x_ref[:, None], axis=0, initial=0.0)  # (G, S)
        errors[entered > 0] = np.inf
        means, medians = errors.mean(axis=1).tolist(), np.median(errors, axis=1).tolist()
    return [
        SimulationReport(
            mean_l2_error=mean,
            median_l2_error=median,
            per_seed_errors=e,
            schedule_label=label,
            diverged_step=int(step) if step else None,
        )
        for e, mean, median, label, step in zip(errors, means, medians, labels, entered)
    ]

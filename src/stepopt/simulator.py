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
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .schedule_file import _check_keys, _json_int
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
        # the sampler's start spread; beyond the float range the reference cannot start
        if not math.isfinite(self._second_moment):
            raise ValueError("the mixture's second moment overflows the float range")
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

    @functools.cached_property
    def _second_moment(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(self.pis * (np.sum(self.mus**2, axis=1) / self.dim + self.stds**2)))

    def second_moment_per_dim(self) -> float:
        """Average of E||x_0||^2 / dim over the mixture, found once when the model is built."""
        return self._second_moment


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
    _check_keys(payload, (), ("dim", "components"), "a model")
    comps = payload.get("components")
    if type(comps) is not list or not comps:
        raise ValueError("a model needs a non-empty list of components")
    for c in comps:
        _check_keys(c, ("pi", "mu", "s"), (), "a component")
        # bool is an int subclass, so compare types exactly
        if type(c["mu"]) is not list or any(
            type(v) not in (int, float) for v in (c["pi"], c["s"], *c["mu"])
        ):
            raise ValueError("pi, s and the entries of mu must be numbers")
    if len({len(c["mu"]) for c in comps}) > 1:
        raise ValueError("the components' mu lists differ in length")
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
        return model_from_dict(json.load(fh, parse_int=_json_int))


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


def _flow_coefficients(model: AnalyticModel, schedule: NoiseSchedule, lam: np.ndarray) -> list:
    """Per log-SNR of the 1-D ``lam``, the reference flow's (K, dim + 2) coefficients of
    ``log r_k`` and (dim + 2, K) ones over ``r`` (see :func:`_reference_batch`), formed
    on (L, K) blocks with the bits each log-SNR gets alone."""
    mus, L = model.mus, len(lam)
    K, dim = mus.shape
    s2, mu2, log_pi = (v.ravel() for v in model._terms)
    log_alpha, log_sigma = (v.tolist() for v in schedule.log_alpha_sigma_of_lambda(lam))
    alpha, sigma2, shrink = np.array([(math.exp(la), math.exp(2.0 * ls), -math.expm1(2.0 * la))
                                      for la, ls in zip(log_alpha, log_sigma)]).T[:, :, None]
    a2 = alpha * alpha
    iv = 1.0 / (s2 * a2 + sigma2)  # 1 / var_k, (L, K)
    log_coef = np.empty((L, K, dim + 2))
    np.multiply(mus, (alpha * iv)[:, :, None], out=log_coef[:, :, :dim])
    log_coef[:, :, dim] = -0.5 * iv
    # np.log, not math.log, which can differ in the last bit
    log_coef[:, :, dim + 1] = log_pi + 0.5 * dim * np.log(iv) - 0.5 * a2 * mu2 * iv
    flow_coef = np.ones((L, dim + 2, K))  # the last row gives sum_k r_k
    np.multiply(mus.T, ((alpha * sigma2) * iv)[:, None], out=flow_coef[:, :dim])
    flow_coef[:, dim] = a2 * (s2 * shrink - sigma2) * iv
    return list(zip(log_coef, flow_coef))


def _mixture_flow(features: np.ndarray, coef: tuple, out: np.ndarray) -> None:
    """Write to the (dim * S,) ``out`` the flow at ``coef`` of the state ``x`` in the
    (dim + 2, S) ``features`` ``[x; |x|^2; 1]``, whose |x|^2 row this fills."""
    dim = features.shape[0] - 2
    x = features[:dim]
    np.einsum("ij,ij->j", x, x, out=features[dim])
    r = coef[0] @ features  # log-responsibilities, (K, S)
    r -= r.max(axis=0)
    np.exp(r, out=r)
    sums = coef[1] @ r  # (dim + 2, S), the last row sum_k r_k
    flow = out.reshape(x.shape)
    np.multiply(sums[dim], x, out=flow)
    flow += sums[:dim]
    flow /= sums[dim + 1]


def _dop853(coefficients, flow, state: np.ndarray, t: float, t_bound: float) -> np.ndarray:
    """The state at ``t_bound`` of DOP853 started at ``t`` from the (n,) ``state``.

    scipy's ``DOP853`` at rtol 1e-10 and atol 1e-13 bit for bit, without
    the solver object: the class's tableau, initial step, step control and
    stage arithmetic (Hairer, Norsett and Wanner, *Solving ODEs I*, II.4-5).
    ``coefficients(lams)`` returns one item per time, and ``flow(item, out)``
    writes to ``out`` the right-hand side there of the state in ``state``,
    where each stage state is written.  One ``coefficients`` call covers a
    step; its last stage time, C = 1, is also the step's end.  A step below
    scipy's minimum, or a NaN one, raises ``RuntimeError``.
    """
    from scipy.integrate import DOP853 as tableau  # lazy: most commands never integrate

    rtol, atol, n = 1e-10, 1e-13, state.size
    exponent = -1 / (tableau.error_estimator_order + 1)
    y = state.copy()
    if t == t_bound:
        return y
    K = np.empty((tableau.n_stages + 1, n))  # stage flows; row 0 the flow at (t, y)
    direction = np.sign(t_bound - t)
    flow(coefficients(np.array([t]))[0], K[0])
    # scipy's select_initial_step, with K[1] holding the trial flow
    scale = atol + np.abs(y) * rtol
    d0, d1 = (np.linalg.norm(v / scale) / n**0.5 for v in (y, K[0]))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_bound - t))
    np.add(y, h0 * direction * K[0], out=state)
    flow(coefficients(np.array([t + h0 * direction]))[0], K[1])
    d2 = np.linalg.norm((K[1] - K[0]) / scale) / n**0.5 / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** -exponent
    h_abs = min(100 * h0, h1, abs(t_bound - t))
    while direction * (t - t_bound) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)  # NaN stays NaN, as in scipy
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too, on which scipy's loop never ends
                raise RuntimeError("reference integration failed: "
                                   "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            t_new = t_bound if direction * (t_new - t_bound) > 0 else t_new
            h = t_new - t
            h_abs = np.abs(h)
            coefs = coefficients(t + tableau.C[1:] * h)
            for s in range(1, tableau.n_stages):
                np.add(y, np.dot(K[:s].T, tableau.A[s, :s]) * h, out=state)
                flow(coefs[s - 1], K[s])
            np.add(y, h * np.dot(K[:-1].T, tableau.B), out=state)  # the step's end
            flow(coefs[-1], K[-1])
            scale = atol + np.maximum(np.abs(y), np.abs(state)) * rtol
            err5, err3 = (np.linalg.norm(np.dot(K.T, e) / scale) ** 2
                          for e in (tableau.E5, tableau.E3))
            error_norm = (0.0 if err5 == err3 == 0
                          else np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * n))
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm**exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm**exponent)
            rejected = True
        t, y[:], K[0] = t_new, state, K[-1]
    return y


def _reference_batch(
    model: AnalyticModel,
    schedule: NoiseSchedule,
    x_start: np.ndarray,
    lam_T: float,
    lam_eps: float,
) -> np.ndarray:
    """Probability-flow solution for a dim-major (dim, S) batch.

    Single Gaussians use the exact closed form; mixtures integrate the
    flattened (dim, S) state with :func:`_dop853`, scipy's DOP853, an
    adaptive explicit Runge-Kutta method of order 8, at rtol 1e-10 and
    atol 1e-13.  At this tolerance DOP853 needs about half as many
    right-hand-side calls as the 4th/5th order RK45.

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
    large lambda, where ``alpha D(x)`` and ``alpha^2 x`` cancel.  Each
    step forms the coefficients of all its stage log-SNRs in one pass, and
    the solve runs under :func:`_short_ufunc_buffer`; the sampler keeps
    :func:`_posterior_mean`.
    """
    if model.pis.size == 1:
        alpha_T, sigma_T = (float(v) for v in schedule.alpha_sigma_of_lambda(lam_T))
        alpha_e, sigma_e = (float(v) for v in schedule.alpha_sigma_of_lambda(lam_eps))
        s = float(model.stds[0])
        mu = model.mus[0]
        hat_T = np.sqrt(alpha_T**2 * s**2 + sigma_T**2)
        hat_e = np.sqrt(alpha_e**2 * s**2 + sigma_e**2)
        return alpha_e * mu[:, None] + (hat_e / hat_T) * (x_start - alpha_T * mu[:, None])

    features = np.concatenate([x_start, np.ones((2, x_start.shape[1]))])  # [x; |x|^2; 1]
    with _short_ufunc_buffer():
        return _dop853(functools.partial(_flow_coefficients, model, schedule),
                       functools.partial(_mixture_flow, features),
                       features[:-2].reshape(-1), lam_T, lam_eps).reshape(x_start.shape)


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

"""Error-bound objective for schedule optimization.

The quantity minimized over interior grid nodes is

    sum_i  r(lam_i) * |total weight multiplying the evaluation at node i|

where the per-node factor ``r = sigma^p / alpha`` proxies how much the
prediction error at that node is expected to contribute, and the weight
totals come from :mod:`stepopt.weights`.  The absolute value is smoothed
as ``sqrt(x^2 + mu^2)`` with the fixed ``mu = 1e-10`` so derivatives stay
usable when a weight total crosses zero during iteration.

Endpoints are fixed; only the ``N - 1`` interior log-SNR values vary.
Gradients are central finite differences with step
``min(1e-6 max(1, |x_i|), half the nearer gap)``, so every strictly
increasing grid has one.  :func:`objective_gradient` returns the value
and the gradient together, the ``fun`` shape of
``scipy.optimize.minimize(..., jac=True)``: the unperturbed grid and the
2(N - 1) perturbed ones, rounded exactly as a loop over the coordinates
would perturb them, share one kernel call over their distinct windows.
:func:`objective_value` evaluates one grid alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .schedules import NoiseSchedule, lambda_range
from .weights import (OrderSchedule, _layout, _point_totals, _window_weights, check_order_cap,
                      step_weight_array)

__all__ = [
    "ConstraintViolationError",
    "ObjectiveSpec",
    "score_error_weight",
    "objective_value",
    "objective_gradient",
    "PROXY_EXPONENTS",
]

# allowed p of the error proxy sigma^p / alpha
PROXY_EXPONENTS = (0, 1, 2, 3)

# mu of the smoothed absolute value sqrt(x^2 + mu^2)
_ABS_SMOOTHING = 1e-10


class ConstraintViolationError(ValueError):
    """Raised when interior nodes break the strict monotonicity constraint."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """Everything that pins down one instance of the bound objective."""

    schedule: NoiseSchedule
    N: int
    T: float
    eps: float
    orders: OrderSchedule
    p: int = 1
    polynomial_kind: str = "lagrange"
    # (lambda at T, lambda at eps), the fixed endpoint values of every grid
    lambda_endpoints: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p not in PROXY_EXPONENTS:
            raise ValueError(f"p must be one of {PROXY_EXPONENTS}")
        check_order_cap(self.orders, self.polynomial_kind)
        if len(self.orders) != self.N:
            raise ValueError(
                f"order schedule covers {len(self.orders)} steps, expected {self.N}"
            )
        # last, so that any other bad field raises before a DomainError does
        endpoints = lambda_range(self.schedule, self.N, self.T, self.eps)
        object.__setattr__(self, "lambda_endpoints", endpoints)


def score_error_weight(schedule: NoiseSchedule, lam, p: int):
    """Prediction-error proxy ``sigma^p / alpha`` at the given half log-SNR.

    Computable from the log-SNR alone, through
    :meth:`NoiseSchedule.log_alpha_sigma_of_lambda`; for
    variance-exploding schedules it reduces to ``exp(-p lam)``.
    """
    return _proxy(schedule, schedule._check_lambda(lam), p)


def _proxy(schedule: NoiseSchedule, lam: np.ndarray, p: int) -> np.ndarray:
    """``sigma^p / alpha`` at log-SNR values the caller has checked."""
    log_alpha, log_sigma = schedule.log_alpha_sigma_of_lambda(lam)
    return np.exp(p * log_sigma - log_alpha)


def _full_lambda(spec: ObjectiveSpec, lambda_interior) -> np.ndarray:
    interior = np.asarray(lambda_interior, dtype=float)
    if interior.shape != (spec.N - 1,):
        raise ValueError(
            f"expected {spec.N - 1} interior values, got shape {interior.shape}"
        )
    full = np.empty(spec.N + 1)
    full[0], full[-1] = spec.lambda_endpoints
    full[1:-1] = interior
    # NaN compares false, so it fails the check too
    if not (full[1:] > full[:-1]).all():
        raise ConstraintViolationError(
            "interior log-SNR values must be strictly increasing between the endpoints"
        )
    return full


def _evaluate(spec: ObjectiveSpec, lam_full: np.ndarray, proxy=_proxy) -> np.ndarray:
    """Objective of each full grid stacked along the leading axes of ``lam_full``.

    ``proxy(schedule, lam, p)`` gives ``sigma^p / alpha``.  The default
    skips the range check, which every row passes: each holds the checked
    endpoints of ``spec`` and strictly increasing nodes between them.
    """
    w = step_weight_array(lam_full, spec.orders, spec.polynomial_kind, lam_full[..., -1:])
    return _smoothed_bound(proxy(spec.schedule, lam_full[..., :-1], spec.p), w)


def _smoothed_bound(factors: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bound of each grid from proxy factors ``(..., N)`` and by-step weights ``(..., N, K)``."""
    signed = _point_totals(w)
    return np.sum(factors * np.sqrt(signed * signed + _ABS_SMOOTHING * _ABS_SMOOTHING), axis=-1)


def objective_value(spec: ObjectiveSpec, lambda_interior) -> float:
    """Bound objective at the given interior log-SNR values.

    Raises :class:`ConstraintViolationError` on non-monotone input; the
    constraint is never silently repaired.
    """
    # one row: the public, checked proxy costs little here, and this call is
    # where the benchmark's per-layer score_error_weight_us times it
    return float(_evaluate(spec, _full_lambda(spec, lambda_interior), score_error_weight))


@lru_cache(maxsize=64)
def _gradient_plan(orders: OrderSchedule) -> tuple[np.ndarray, ...]:
    """Indices into :func:`_perturbed_table`'s table of the gradient's grids and windows.

    ``index[r]`` is grid r: rows 2i and 2i + 1 those of ``f(x +- h_i e_i)``, the last
    the unperturbed grid.  Window u has nodes ``nodes[:, u]`` by age, end ``end[u]``
    and order mask ``used[:, :, u]``; grid r's step n has window ``window[r, n-1]``.
    """
    N = len(orders)
    n = N - 1
    i = np.arange(n)
    # plus[i], minus[i] and restored[i] sit at i, n + i and 2n + i, lam_full[j] at 3n + j
    index = np.tile(3 * n + np.arange(N + 1), (2 * n + 1, 1))
    index[:-1, 1:-1] = np.repeat(np.where(i[:, None] > i, 2 * n + i, 3 * n + 1 + i), 2, axis=0)
    index[2 * i, i + 1] = i
    index[2 * i + 1, i + 1] = n + i
    # a window is its nodes by age and its end, with the step, which fixes the order
    layout = _layout(orders)
    steps = np.broadcast_to(np.arange(N), (2 * n + 1, N))
    keys = np.stack([*np.moveaxis(index[:, layout.gather], 1, 0), index[:, 1:], steps], axis=-1)
    unique, window = np.unique(keys.reshape(-1, keys.shape[-1]), axis=0, return_inverse=True)
    plan = (index, np.ascontiguousarray(unique[:, :-2].T), unique[:, -2].copy(),
            layout.used[:, :, unique[:, -1]], window.reshape(steps.shape))
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _perturbed_table(lam_full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference steps ``h`` and the table ``[plus, minus, restored, lam_full]``."""
    x = lam_full[1:-1]
    gaps = lam_full[1:] - lam_full[:-1]
    steps = np.minimum(1e-6 * np.maximum(1.0, np.abs(x)), 0.5 * np.minimum(gaps[:-1], gaps[1:]))
    plus = x + steps
    minus = plus - 2.0 * steps
    return steps, np.concatenate((plus, minus, minus + steps, lam_full))


def objective_gradient(spec: ObjectiveSpec, lambda_interior) -> tuple[float, np.ndarray]:
    """Objective value and central finite-difference gradient in the interior values.

    The step is ``h_i = min(1e-6 max(1, |x_i|), min(gap_left, gap_right) / 2)``:
    1e-6 scaled by the coordinate magnitude, capped at half the nearer gap
    so every perturbed grid stays strictly increasing.

    The unperturbed grid and all 2(N - 1) perturbed ones are evaluated
    together, so the value equals :func:`objective_value` and costs no
    kernel call of its own.  The perturbed grids hold the values of a
    loop that moves coordinate i in place to ``x_i + h_i``, then
    ``(x_i + h_i) - 2 h_i``, and restores it by adding ``h_i``:
    coordinates j < i sit at that restored value, which can be an ulp off
    ``x_j``.  Optimizer paths follow round-off, so these exact values are
    kept: with clean ``x +- h`` rows, gradients moved by up to 1.5e-8
    relative, L-BFGS-B took other paths at N = 10 and 15, and the
    benchmark's ``optimize`` workload went from ``l2_ratio`` 0.708 to
    0.960 and from ``l2_rank_corr`` 0.933 to 0.867.

    The grids' nodes are 4N - 2 values and a step's weights depend only on
    its node window: one kernel call weighs the distinct windows, listed
    once per order schedule (at most 10 per step, not 2N - 1), and each
    grid gathers its steps' weights back, bit for bit.
    """
    steps, table = _perturbed_table(_full_lambda(spec, lambda_interior))
    index, nodes, end, used, window = _gradient_plan(spec.orders)
    w = _window_weights(table[nodes], table[end], used, spec.polynomial_kind, table[-1], window)
    factors = _proxy(spec.schedule, table[:-1], spec.p)[index[:, :-1]]
    f = _smoothed_bound(factors, w[:, window].transpose(1, 2, 0))
    return float(f[-1]), (f[0:-1:2] - f[1:-1:2]) / (2.0 * steps)

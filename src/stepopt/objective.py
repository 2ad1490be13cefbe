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
would perturb them, go through one batched evaluation.
:func:`objective_value` evaluates one grid alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schedules import NoiseSchedule
from .weights import POLYNOMIAL_KINDS, OrderSchedule, _point_totals, step_weight_array

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
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if not self.T > self.eps:
            raise ValueError(f"T={self.T} must exceed eps={self.eps}")
        if self.p not in PROXY_EXPONENTS:
            raise ValueError(f"p must be one of {PROXY_EXPONENTS}")
        if self.polynomial_kind not in POLYNOMIAL_KINDS:
            raise ValueError(f"polynomial kind must be one of {POLYNOMIAL_KINDS}")
        if len(self.orders) != self.N:
            raise ValueError(
                f"order schedule covers {len(self.orders)} steps, expected {self.N}"
            )
        endpoints = (
            float(self.schedule.lambda_of_t(self.T)),
            float(self.schedule.lambda_of_t(self.eps)),
        )
        object.__setattr__(self, "lambda_endpoints", endpoints)


def score_error_weight(schedule: NoiseSchedule, lam, p: int):
    """Prediction-error proxy ``sigma^p / alpha`` at the given half log-SNR.

    Computable from the log-SNR alone: for VP families alpha and sigma
    are ``(1 + exp(-2 lam))^(-1/2)`` and ``(1 + exp(2 lam))^(-1/2)``; for
    variance-exploding schedules this reduces to ``exp(-p lam)``.
    """
    lam = schedule._check_lambda(lam)
    if schedule.family == "ve_edm":
        return np.exp(-p * lam)
    log_alpha = -0.5 * np.logaddexp(0.0, -2.0 * lam)
    log_sigma = -0.5 * np.logaddexp(0.0, 2.0 * lam)
    return np.exp(p * log_sigma - log_alpha)


def _full_lambda(spec: ObjectiveSpec, lambda_interior) -> np.ndarray:
    interior = np.asarray(lambda_interior, dtype=float)
    if interior.shape != (spec.N - 1,):
        raise ValueError(
            f"expected {spec.N - 1} interior values, got shape {interior.shape}"
        )
    lam_T, lam_eps = spec.lambda_endpoints
    full = np.concatenate(([lam_T], interior, [lam_eps]))
    if not np.all(np.diff(full) > 0):
        raise ConstraintViolationError(
            "interior log-SNR values must be strictly increasing between the endpoints"
        )
    return full


def _evaluate(spec: ObjectiveSpec, lam_full: np.ndarray) -> np.ndarray:
    """Objective of each full grid stacked along the leading axes of ``lam_full``."""
    w = step_weight_array(lam_full, spec.orders, spec.polynomial_kind, lam_full[..., -1:])
    signed = _point_totals(w, spec.orders)
    factors = score_error_weight(spec.schedule, lam_full[..., :-1], spec.p)
    return np.sum(factors * np.sqrt(signed * signed + _ABS_SMOOTHING * _ABS_SMOOTHING), axis=-1)


def objective_value(spec: ObjectiveSpec, lambda_interior) -> float:
    """Bound objective at the given interior log-SNR values.

    Raises :class:`ConstraintViolationError` on non-monotone input; the
    constraint is never silently repaired.
    """
    return float(_evaluate(spec, _full_lambda(spec, lambda_interior)))


def objective_gradient(spec: ObjectiveSpec, lambda_interior) -> tuple[float, np.ndarray]:
    """Objective value and central finite-difference gradient in the interior values.

    The step is ``h_i = min(1e-6 max(1, |x_i|), min(gap_left, gap_right) / 2)``:
    1e-6 scaled by the coordinate magnitude, capped at half the nearer gap
    so every perturbed grid stays strictly increasing.

    The unperturbed grid and all 2(N - 1) perturbed ones go through one
    batched evaluation, so the value equals :func:`objective_value` and
    costs no kernel call of its own.  The perturbed grids hold the values
    of a loop that moves coordinate i in place to ``x_i + h_i``, then
    ``(x_i + h_i) - 2 h_i``, and restores it by adding ``h_i``:
    coordinates j < i sit at that restored value, which can be an ulp off
    ``x_j``.  Optimizer paths follow round-off, so these exact values are
    kept: with clean ``x +- h`` rows, gradients moved by up to 1.5e-8
    relative and the vp-linear best-of-3 schedules at N = 5, 10 and 15
    changed, because the optimizer took other paths.
    """
    lam_full = _full_lambda(spec, lambda_interior)
    n_free = spec.N - 1
    x = lam_full[1:-1]
    gaps = np.diff(lam_full)
    steps = np.minimum(1e-6 * np.maximum(1.0, np.abs(x)), 0.5 * np.minimum(gaps[:-1], gaps[1:]))
    plus = x + steps
    minus = plus - 2.0 * steps
    restored = minus + steps
    i = np.arange(n_free)
    # rows 2i and 2i + 1 are the grids of f(x + h_i e_i) and f(x - h_i e_i);
    # the last row is the unperturbed grid
    points = np.tile(lam_full, (2 * n_free + 1, 1))
    perturbed = points[:-1].reshape(n_free, 2, lam_full.size)
    perturbed[:, :, 1:-1] = np.where(i[:, None] > i, restored, x)[:, None, :]
    perturbed[i, 0, i + 1] = plus
    perturbed[i, 1, i + 1] = minus
    f = _evaluate(spec, points)
    return float(f[-1]), (f[0:-1:2] - f[1:-1:2]) / (2.0 * steps)

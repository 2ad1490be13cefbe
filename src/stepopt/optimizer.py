"""Constrained minimization of the bound objective over interior nodes.

The free variables are the ``N - 1`` interior log-SNR values; the
constraints are minimum gaps ``delta`` between consecutive nodes
(including the fixed endpoints), which realize the strict monotonicity
requirement with a safe margin.  The solver is a trust-region method:

* quadratic model from the finite-difference gradient and a damped
  BFGS Hessian approximation,
* one objective call per trial, for its value and gradient together, so
  an accepted trial already holds the gradient of the next model; the
  finite-difference step is capped at half the nearer node gap, so every
  feasible trial has a gradient,
* dogleg solution of the model inside the radius,
* trial points projected back onto the feasible set; steps that fail to
  reduce the objective shrink the radius and are rejected.

Accepted iterates therefore always satisfy the gap constraints and form
a non-increasing objective sequence.  The whole procedure is
deterministic: no randomness, fixed evaluation order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .objective import ObjectiveSpec, objective_gradient
from .schedules import SCHEMES, LambdaGrid, scheme_grid

__all__ = [
    "InfeasibleError",
    "OptimizerConfig",
    "OptimizedSchedule",
    "feasibility_project",
    "optimize_steps",
]

# stationarity tolerance on the projected-gradient norm
_GRAD_TOL = 1e-8
# an accepted step shorter than this (max norm) ends the run as converged
_STEP_TOL = 1e-10
# initial trust radius as a share of the mean node gap span / N
_RADIUS0_SHARE = 0.1


class InfeasibleError(ValueError):
    """Raised when no grid can satisfy the margin constraints."""


@dataclass(frozen=True)
class OptimizerConfig:
    init: str = "uniform-lambda"
    rho: int = 7
    margin: float | None = None  # None: max(1e-4, 1e-3 * span / N)
    max_iters: int = 500

    def __post_init__(self):
        if self.init not in SCHEMES:
            raise ValueError(f"init must be one of {SCHEMES}")
        if self.margin is not None and not 1e-4 <= self.margin < math.inf:
            raise ValueError("margin must be finite and at least 1e-4")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class OptimizedSchedule:
    grid: LambdaGrid
    objective: float
    initial_objective: float
    iterations: int
    converged: bool
    wall_time_seconds: float


def feasibility_project(grid_interior, lam_T: float, lam_eps: float, delta: float) -> np.ndarray:
    """Nearest (max-norm) increasing sequence with gaps >= delta inside the endpoints.

    A forward sweep raises each value to keep at least ``delta`` above
    its predecessor, then a backward sweep lowers values that crowd the
    upper endpoint.  Feasible input passes through unchanged.
    """
    x = np.asarray(grid_interior, dtype=float).copy()
    n_gaps = x.size + 1
    if lam_eps - lam_T < n_gaps * delta:
        raise InfeasibleError(
            f"span {lam_eps - lam_T} cannot hold {n_gaps} gaps of at least {delta}"
        )
    prev = lam_T
    for i in range(x.size):
        if x[i] < prev + delta:
            x[i] = prev + delta
        prev = x[i]
    upper = lam_eps
    for i in range(x.size - 1, -1, -1):
        if x[i] > upper - delta:
            x[i] = upper - delta
        upper = x[i]
    return x


def _dogleg(g: np.ndarray, B: np.ndarray, radius: float) -> np.ndarray:
    """Approximate minimizer of g.s + s.B.s/2 within the radius (B positive definite)."""
    try:
        newton = -np.linalg.solve(B, g)
    except np.linalg.LinAlgError:
        newton = None
    if newton is not None and np.linalg.norm(newton) <= radius:
        return newton
    g_norm2 = float(g @ g)
    curvature = float(g @ B @ g)
    if curvature <= 0 or newton is None:
        return -(radius / np.sqrt(g_norm2)) * g
    cauchy = -(g_norm2 / curvature) * g
    cauchy_norm = np.linalg.norm(cauchy)
    if cauchy_norm >= radius:
        return (radius / cauchy_norm) * cauchy
    # walk from the Cauchy point toward the Newton point until the boundary
    d = newton - cauchy
    aa = float(d @ d)
    bb = 2.0 * float(cauchy @ d)
    cc = float(cauchy @ cauchy) - radius * radius
    tau = (-bb + np.sqrt(bb * bb - 4.0 * aa * cc)) / (2.0 * aa)
    return cauchy + tau * d


def _bfgs_update(B: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Damped BFGS update keeping B positive definite."""
    Bs = B @ s
    sBs = float(s @ Bs)
    if sBs <= 0:
        return B
    sy = float(s @ y)
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        y = theta * y + (1.0 - theta) * Bs
        sy = float(s @ y)
    if sy <= 0:
        return B
    return B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy


def optimize_steps(
    spec: ObjectiveSpec,
    config: OptimizerConfig | None = None,
    on_accept=None,
) -> OptimizedSchedule:
    """Run the trust-region method from the configured initialization.

    ``on_accept(iteration, x, f)`` is called at every accepted iterate,
    which is useful for tracing descent.  With ``N == 1`` there are no
    free variables: the gradient is empty and the run stops converged at
    iteration 0.
    """
    config = config or OptimizerConfig()
    start = time.perf_counter()
    lam_T, lam_eps = spec.lambda_endpoints
    if not lam_T < lam_eps:
        raise InfeasibleError(
            f"endpoint log-SNR values are not increasing: {lam_T} >= {lam_eps}"
        )
    span = lam_eps - lam_T
    delta = config.margin if config.margin is not None else max(1e-4, 1e-3 * span / spec.N)
    init = scheme_grid(config.init, spec.schedule, spec.N, spec.T, spec.eps, config.rho)
    x = feasibility_project(init.lam[1:-1], lam_T, lam_eps, delta)
    f, g = objective_gradient(spec, x)
    initial_objective = f
    if on_accept is not None:
        on_accept(0, x.copy(), f)

    B = np.eye(x.size)
    scaled = False
    radius = _RADIUS0_SHARE * span / spec.N
    radius_max = span
    converged = False
    iterations = 0

    def projected_gradient_norm(x, g):
        return float(
            np.max(np.abs(x - feasibility_project(x - g, lam_T, lam_eps, delta)), initial=0.0)
        )

    for iterations in range(1, config.max_iters + 1):
        if projected_gradient_norm(x, g) <= _GRAD_TOL:
            converged = True
            iterations -= 1
            break
        step = _dogleg(g, B, radius)
        trial = feasibility_project(x + step, lam_T, lam_eps, delta)
        actual_step = trial - x
        step_norm = float(np.max(np.abs(actual_step)))
        # a step that the projection cancels predicts no decrease (-0.0)
        predicted = -(float(g @ actual_step) + 0.5 * float(actual_step @ B @ actual_step))
        accept = False
        if predicted > 0.0:
            f_trial, g_trial = objective_gradient(spec, trial)
            ratio = (f - f_trial) / predicted
            accept = f_trial < f and ratio > 1e-4
        if accept:
            y = g_trial - g
            if not scaled:
                # rescale the unit initial Hessian to the observed curvature
                sy = float(actual_step @ y)
                if sy > 0:
                    B *= float(y @ y) / sy
                scaled = True
            B = _bfgs_update(B, actual_step, y)
            x, f, g = trial, f_trial, g_trial
            if on_accept is not None:
                on_accept(iterations, x.copy(), f)
            if ratio > 0.75 and step_norm >= 0.8 * radius:
                radius = min(2.0 * radius, radius_max)
            elif ratio < 0.25:
                radius *= 0.25
            if step_norm <= _STEP_TOL:
                converged = True
                break
        else:
            radius *= 0.25
        if radius < 1e-14:
            converged = projected_gradient_norm(x, g) <= _GRAD_TOL
            break

    grid = _finish_grid(spec, x)
    return OptimizedSchedule(
        grid=grid,
        objective=f,
        initial_objective=initial_objective,
        iterations=iterations,
        converged=converged,
        wall_time_seconds=time.perf_counter() - start,
    )


def _finish_grid(spec: ObjectiveSpec, interior: np.ndarray) -> LambdaGrid:
    lam_T, lam_eps = spec.lambda_endpoints
    lam = np.concatenate(([lam_T], interior, [lam_eps]))
    return LambdaGrid.from_lambda(spec.schedule, lam, spec.T, spec.eps)

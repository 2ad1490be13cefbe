"""Constrained minimization of the bound objective over interior nodes.

The free variables are the ``N - 1`` interior log-SNR values; the
constraints are minimum gaps ``delta`` between consecutive nodes
(including the fixed endpoints), which realize the strict monotonicity
requirement with a safe margin.  The constraints are met by
construction: the ``N`` gaps are ``delta + free * softmax(z)`` with
``free = span - N delta``, so any logit vector ``z`` gives a feasible
grid.  scipy's L-BFGS-B minimizes over ``z`` with the value and
finite-difference gradient of :func:`objective_gradient`, chained
through the softmax; one objective call serves each point the solver
visits.  The procedure is deterministic: no randomness, fixed
evaluation order.
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
    "optimize_steps",
]


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
    message: str  # scipy's reason for stopping
    evaluations: int  # objective calls, each a value and a gradient


def optimize_steps(
    spec: ObjectiveSpec,
    config: OptimizerConfig | None = None,
    on_accept=None,
) -> OptimizedSchedule:
    """Run L-BFGS-B over the gap logits from the configured initialization.

    The start logits are ``log(max(gap - delta, delta) / free)`` of the
    initial grid's gaps, so a start gap below the margin starts above it.
    ``on_accept(iteration, x, f)`` is called at the start point and at
    every iterate the solver accepts, which is useful for tracing
    descent.  ``converged`` means scipy stopped on its own tolerances
    (status 0), not on the iteration cap or a failed line search;
    ``message`` is scipy's reason.  The result is the last accepted
    iterate, or the start point if that is not lower.
    """
    from scipy.optimize import minimize

    config = config or OptimizerConfig()
    start = time.perf_counter()
    lam_T, lam_eps = spec.lambda_endpoints
    span = lam_eps - lam_T
    delta = config.margin if config.margin is not None else max(1e-4, 1e-3 * span / spec.N)
    free = span - spec.N * delta
    if not free > 0:
        raise InfeasibleError(f"span {span} cannot hold {spec.N} gaps of more than {delta}")
    init = scheme_grid(config.init, spec.schedule, spec.N, spec.T, spec.eps, config.rho)

    def softmax(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    def interior(s):
        return lam_T + np.cumsum(delta + free * s)[:-1]

    visited = []  # (x, f) of the start point, then of each accepted iterate
    evaluated = {}  # logits' bytes -> (f, gradient); L-BFGS-B asks for some points again

    def fun(z):
        key = z.tobytes()
        if key not in evaluated:
            s = softmax(z)
            x = interior(s)
            f, g = objective_gradient(spec, x)
            if not visited:
                visited.append((x, f))
                if on_accept is not None:
                    on_accept(0, x.copy(), f)
            v = np.zeros(spec.N)
            v[:-1] = np.cumsum(g[::-1])[::-1]
            evaluated[key] = (f, free * s * (v - s @ v))
        f, gradient = evaluated[key]
        return f, gradient.copy()

    def accepted(intermediate_result):
        visited.append((interior(softmax(intermediate_result.x)), float(intermediate_result.fun)))
        if on_accept is not None:
            on_accept(len(visited) - 1, visited[-1][0].copy(), visited[-1][1])

    z0 = np.log(np.maximum(np.diff(init.lam) - delta, delta) / free)
    res = minimize(fun, z0, jac=True, method="L-BFGS-B", callback=accepted,
                   options={"maxiter": config.max_iters})
    x, f = visited[-1] if visited[-1][1] < visited[0][1] else visited[0]
    return OptimizedSchedule(
        grid=_finish_grid(spec, x),
        objective=f,
        initial_objective=visited[0][1],
        iterations=res.nit,
        converged=res.status == 0,
        wall_time_seconds=time.perf_counter() - start,
        message=str(res.message),
        evaluations=int(res.nfev),
    )


def _finish_grid(spec: ObjectiveSpec, interior: np.ndarray) -> LambdaGrid:
    lam_T, lam_eps = spec.lambda_endpoints
    lam = np.concatenate(([lam_T], interior, [lam_eps]))
    return LambdaGrid.from_lambda(spec.schedule, lam, spec.T, spec.eps)

"""Solver weights for multistep exponential-integrator updates.

Each step of the sampler replaces the prediction function on one
log-SNR interval by a local polynomial built from the most recent
function values, either the interpolating (Lagrange) polynomial through
those values or a Taylor polynomial whose derivatives are estimated by
finite-difference stencils.  The update coefficient attached to each
function value is the exact integral of ``exp(lam)`` times the matching
basis polynomial over the step interval.

All weights come from one array kernel, :func:`step_weight_array`,
which treats every step of a grid, or of a stack of grids, at once.  Because raw coefficients
carry a factor ``exp(lam)`` that can overflow for schedules reaching
large log-SNR, every table stores weights pre-multiplied by
``exp(-scale_anchor)``.  The anchor defaults to the largest grid value,
keeping all stored magnitudes of order one; the downstream objective is
scale invariant in its minimizer, so the anchor never changes any
decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .schedules import LambdaGrid

__all__ = [
    "OrderSchedule",
    "WeightTable",
    "POLYNOMIAL_KINDS",
    "exp_poly_integral",
    "lagrange_basis",
    "step_weight_array",
    "weights_lagrange",
    "weights_taylor",
    "aggregate",
]

MAX_ORDER = 4
MAX_TAYLOR_ORDER = 3
POLYNOMIAL_KINDS = ("lagrange", "taylor")

# Below this interval width the antiderivative difference cancels
# (absolute error ~ eps * m! against a value ~ h^(m+1)); switch to a
# positive-term series, which is uniformly accurate there.
_SERIES_WIDTH = 0.25
# ascending coefficients of the antiderivative polynomials S_0 .. S_3 below
_ANTIDERIVATIVE = np.array(
    [[1.0, 0.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0], [2.0, -2.0, 1.0, 0.0], [-6.0, 6.0, -3.0, 1.0]]
)


@dataclass(frozen=True)
class OrderSchedule:
    """Per-step local orders ``k_1 .. k_N`` with ``k_n <= n``."""

    k: tuple[int, ...]

    def __post_init__(self):
        k = tuple(int(v) for v in self.k)
        object.__setattr__(self, "k", k)
        if len(k) < 1:
            raise ValueError("order schedule must cover at least one step")
        for n, kn in enumerate(k, start=1):
            if not 1 <= kn <= n:
                raise ValueError(f"step {n} has order {kn}; need 1 <= order <= {n}")
            if kn > MAX_ORDER:
                raise ValueError(f"order {kn} exceeds the implementation cap {MAX_ORDER}")

    @classmethod
    def warmup(cls, n_steps: int, max_order: int) -> "OrderSchedule":
        """The usual ramp: order n on step n until ``max_order`` is reached."""
        return cls(tuple(min(n, max_order) for n in range(1, n_steps + 1)))

    def __len__(self) -> int:
        return len(self.k)


@dataclass(frozen=True)
class WeightTable:
    """Scaled solver weights, one row per step.

    Row ``n - 1`` holds the ``k_n`` weights of step ``n``, one per basis
    index j (evaluation point ``n - k_n + j``), followed by zeros.
    """

    weights: np.ndarray  # (N, max order)
    orders: OrderSchedule
    scale_anchor: float

    def __post_init__(self):
        self.weights.setflags(write=False)

    def step_weights(self, n: int) -> np.ndarray:
        return self.weights[n - 1, : self.orders.k[n - 1]]


def _exp_moments(h: np.ndarray, count: int) -> np.ndarray:
    """``M[..., n, m] = int_0^h[..., n] exp(u) u^m du`` for ``m < count <= 4``.

    Exact to round-off for any h > 0: wide intervals use the closed-form
    antiderivative

        d/du [exp(u) * S_m(u)] = exp(u) u^m,  S_m(u) = u^m - m S_(m-1)(u),

    and narrow ones the (all-positive) power series of the moments.
    Moments that overflow come back as ``inf``.
    """
    h = np.asarray(h, dtype=float)[..., None]
    m = np.arange(count)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(h) * (h**m @ _ANTIDERIVATIVE[:count, :count].T) - _ANTIDERIVATIVE[:count, 0]
    narrow = h[..., 0] < _SERIES_WIDTH
    if narrow.any():
        hn = h[narrow]
        term = hn ** (m + 1) / (m + 1)
        total = term.copy()
        for k in range(1, 62):
            term *= hn * (m + k) / (k * (m + k + 1))
            total += term
            if np.all(term <= 1e-18 * total):
                break
        out[narrow] = total
    return out


def exp_poly_integral(coeffs, a: float, b: float, shift: float = 0.0) -> float:
    """Exact integral of ``exp(lam - shift) * p(lam)`` over [a, b].

    ``coeffs`` are ascending polynomial coefficients, degree at most 3.
    The integral is evaluated in the local coordinate ``u = lam - a``:
    re-expand the polynomial around ``a``, then combine the moments
    ``int_0^h exp(u) u^m du`` of the weight kernel.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0 or coeffs.size > 4:
        raise ValueError("polynomial degree must be between 0 and 3")
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    # Taylor coefficients of p at a: the polynomial in powers of u
    q = np.array(
        [P.polyval(a, P.polyder(coeffs, m)) / math.factorial(m) for m in range(coeffs.size)]
    )
    moments = _exp_moments(np.array([b - a]), q.size)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.exp(a - shift) * (q @ moments))
    if not np.isfinite(value):
        raise OverflowError(f"integral of exp(lam - {shift}) over [{a}, {b}] is not finite")
    return value


def lagrange_basis(nodes, j: int) -> np.ndarray:
    """Ascending coefficients of the j-th Lagrange basis polynomial."""
    nodes = np.asarray(nodes, dtype=float)
    if not 0 <= j < nodes.size:
        raise ValueError(f"basis index {j} out of range for {nodes.size} nodes")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("interpolation nodes must be distinct")
    others = np.delete(nodes, j)
    return np.atleast_1d(np.poly(others))[::-1] / np.prod(nodes[j] - others)


@lru_cache(maxsize=64)
def _layout(orders: OrderSchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays that depend only on the order schedule.

    ``points[n-1, j] = n - k_n + j`` is the evaluation point (and grid
    node) behind basis index j of step n; ``real`` marks ``j < k_n``;
    ``block`` marks the real ``k_n x k_n`` block of each step's system.
    """
    k = np.array(orders.k)
    K = int(k.max())
    points = np.arange(1, k.size + 1)[:, None] - k[:, None] + np.arange(K)
    real = np.arange(K) < k[:, None]
    block = real[:, :, None] & real[:, None, :]
    for arr in (points, real, block):
        arr.setflags(write=False)
    return points, real, block


def _lagrange_local(u: np.ndarray, block: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Solve ``V^T w = M`` per step, V the local Vandermonde matrix.

    Weight j is the integral of basis polynomial j, whose ascending
    coefficients form row j of ``V^(-T)``.  Entries past ``k_n`` are
    padded with identity rows and zero moments, so their weights solve
    to exactly zero.
    """
    K = u.shape[-1]
    system = np.where(block, u[..., None, :] ** np.arange(K)[:, None], np.eye(K))  # u_j^m
    return np.linalg.solve(system, moments[..., None])[..., 0]


def _taylor_local(h: np.ndarray, k: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Taylor weights from first- and second-derivative stencils.

    The constant term sits entirely on the newest value; the first
    derivative uses the two newest values (gap ``a``) and the second
    derivative the three newest (older gap ``b``), with stencils that
    vanish on constants.
    """
    N, K = moments.shape[-2:]
    pad = ((0, 0),) * (moments.ndim - 1) + ((0, 3 - K),)
    m0, m1, m2 = np.moveaxis(np.pad(moments, pad), -1, 0)
    # gap a between the two newest values, b between the next two; 1 where absent
    a = np.ones_like(h)
    a[..., 1:] = h[..., :-1]
    b = np.ones_like(h)
    b[..., 2:] = h[..., :-2]
    by_age = np.stack(
        (
            m0 + m1 / a + m2 / (a * (a + b)),
            -m1 / a - m2 / (a * b),
            m2 / (b * (a + b)),
        ),
        axis=-1,
    )  # column d multiplies the value d steps older than the newest
    age = k[:, None] - 1 - np.arange(K)
    taken = by_age[..., np.arange(N)[:, None], np.clip(age, 0, 2)]
    return np.where(age >= 0, taken, 0.0)


def step_weight_array(lam, orders: OrderSchedule, kind: str, shift) -> np.ndarray:
    """Weights of every step at once, as an ``(..., N, max order)`` array.

    ``lam`` holds one grid of ``N + 1`` nodes along its last axis; any
    leading axes stack independent grids, and each one gets exactly the
    weights a call with that grid alone returns.  Row ``n - 1`` holds the
    weights of step ``n`` (1-based), one per basis index j, multiplied by
    ``exp(lam[..., n-1] - shift)``; entries past ``k_n`` are exactly zero.
    ``shift`` broadcasts against ``lam[..., :-1]``: a scalar anchor, one
    anchor per grid (shape ``(..., 1)``), or one value per step.  Work
    happens in the local coordinate ``u = lam - lam[n-1]`` so the
    polynomial expansion stays well conditioned regardless of where the
    grid sits on the log-SNR axis.
    """
    lam = np.asarray(lam, dtype=float)
    N = lam.shape[-1] - 1
    if len(orders) != N:
        raise ValueError(f"order schedule covers {len(orders)} steps but grid has {N}")
    if kind not in POLYNOMIAL_KINDS:
        raise ValueError(f"unknown polynomial kind {kind!r}")
    points, real, block = _layout(orders)
    K = real.shape[1]
    if kind == "taylor" and K > MAX_TAYLOR_ORDER:
        raise ValueError(f"taylor weights support order <= {MAX_TAYLOR_ORDER}, got {K}")
    h = np.diff(lam)
    moments = np.where(real, _exp_moments(h, K), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "lagrange":
            u = lam[..., np.minimum(points, N)] - lam[..., :-1, None]
            local = _lagrange_local(u, block, moments)
        else:
            local = _taylor_local(h, real.sum(axis=1), moments)
        w = local * np.exp(lam[..., :-1] - shift)[..., None]
    if not np.isfinite(w).all():
        first = tuple(np.argwhere(~np.isfinite(w).all(axis=-1))[0])  # (grid..., step - 1)
        anchor = np.broadcast_to(shift, w.shape[:-1])[first]
        raise OverflowError(
            f"weights of step {first[-1] + 1} are not finite at scale anchor {anchor}"
        )
    return w


def _table(grid: LambdaGrid, orders: OrderSchedule, kind: str, scale_anchor) -> WeightTable:
    anchor = float(grid.lam[-1]) if scale_anchor is None else float(scale_anchor)
    w = step_weight_array(grid.lam, orders, kind, anchor)
    return WeightTable(weights=w, orders=orders, scale_anchor=anchor)


def weights_lagrange(grid: LambdaGrid, orders: OrderSchedule, scale_anchor=None) -> WeightTable:
    """Weights of the interpolating-polynomial solver on the given grid."""
    return _table(grid, orders, "lagrange", scale_anchor)


def weights_taylor(grid: LambdaGrid, orders: OrderSchedule, scale_anchor=None) -> WeightTable:
    """Weights of the Taylor-expansion solver on the given grid."""
    return _table(grid, orders, "taylor", scale_anchor)


def _point_totals(w: np.ndarray, orders: OrderSchedule) -> np.ndarray:
    """Signed total weight multiplying each evaluation point i = n - k_n + j.

    ``w`` may stack grids along leading axes.  One ``np.bincount`` serves
    the whole stack: each grid gets its own block of bins, so every bin
    sums the same entries in the same order as for a single grid.
    """
    points = _layout(orders)[0]
    N = points.shape[0]
    bins = int(points.max()) + 1
    lead = w.shape[:-2]
    grids = math.prod(lead)
    if lead:
        points = points + bins * np.arange(grids)[:, None, None]
    # padded entries are zero, so the bins they land in do not matter
    totals = np.bincount(points.ravel(), weights=w.ravel(), minlength=grids * bins)
    return totals.reshape(*lead, bins)[..., :N]


def aggregate(table: WeightTable, orders: OrderSchedule) -> np.ndarray:
    """Absolute per-evaluation-point totals of the table's weights (same scale anchor)."""
    return np.abs(_point_totals(table.weights, orders))

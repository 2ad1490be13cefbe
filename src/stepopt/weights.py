"""Solver weights for multistep exponential-integrator updates.

Each step of the sampler replaces the prediction function on one
log-SNR interval by a local polynomial built from the most recent
function values, either the interpolating (Lagrange) polynomial through
those values or a Taylor polynomial whose derivatives are estimated by
divided differences.  The update coefficient attached to each function
value is the exact integral of ``exp(lam)`` times the matching basis
polynomial over the step interval.

Both kinds share one construction.  Take step n's ``k_n`` nodes by age,
``u_d = lam[n-1-d] - lam[n-1]`` (so ``u_0 = 0``), and let

    D[m, d] = 1 / prod_(l <= m, l != d) (u_d - u_l),   d <= m,

be the coefficients of the divided difference ``f[u_0 ... u_m]``.  The
weight on the value of age d is then ``w_d = sum_m D[m, d] I_m``, where

* Taylor: ``I_m = int_0^h exp(u) u^m du``, the plain moments, since the
  m-th Taylor coefficient is estimated by ``f[u_0 ... u_m]``;
* Lagrange: ``I_m = int_0^h exp(u) prod_(l < m) (u - u_l) du``, the
  Newton form of the interpolant.  Every ``u_l <= 0``, so the product
  has non-negative coefficients and ``I_m`` is a sum of positive terms.

All weights come from one array kernel, :func:`step_weight_array`,
which treats every step of a grid, or of a stack of grids, at once.
Every weight array keeps them by age: column d of step n's row is the
weight on node ``lam[n-1-d]``, the order in which a multistep sampler
reads its past predictions, and the total weight on each evaluation
point is a sum along one diagonal.  Basis-index order, oldest node
first, is step n's row read backwards from column ``k_n - 1``.

Inside the kernel the age axis comes first: nodes, moments, integrals
and weights are contiguous ``(K, ..., N)`` arrays, one block per age,
so each numpy call runs one loop over every step of every grid rather
than a K-long inner loop per step (K <= 4).  The kernel returns the
by-step ``(..., N, K)`` view of its weight array; the diagonal sums of
the point totals read whole age blocks of it.

Because raw coefficients carry a factor ``exp(lam)`` that can overflow
for schedules reaching large log-SNR, weights come pre-multiplied by
``exp(-anchor)``.  :func:`weights_lagrange` and :func:`weights_taylor`
anchor at the largest grid value, keeping all magnitudes of order one;
the downstream objective is scale invariant in its minimizer, so the
anchor never changes any decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .schedules import LambdaGrid

__all__ = [
    "OrderSchedule",
    "POLYNOMIAL_KINDS",
    "check_order_cap",
    "step_weight_array",
    "weights_lagrange",
    "weights_taylor",
    "aggregate",
]

MAX_ORDER = 4
MAX_TAYLOR_ORDER = 3
POLYNOMIAL_KINDS = ("lagrange", "taylor")

# Below this interval width the antiderivative difference cancels
# (absolute error ~ eps * m! against a value ~ h^(m+1)); switch to the
# positive-term series h^(m+1) sum_k h^k / (k! (m + k + 1)).  Fifteen
# terms suffice: the first one left out is below 2e-22 of the sum.
_SERIES_WIDTH = 0.25
_SERIES = np.array(
    [[1.0 / (math.factorial(k) * (m + k + 1)) for m in range(MAX_ORDER)] for k in range(15)]
)
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


def _exp_moments(h: np.ndarray, count: int) -> np.ndarray:
    """``M[m, ..., n] = int_0^h[..., n] exp(u) u^m du`` for ``m < count <= 4``.

    Exact to round-off for any h > 0: wide intervals use the closed-form
    antiderivative

        d/du [exp(u) * S_m(u)] = exp(u) u^m,  S_m(u) = u^m - m S_(m-1)(u),

    and narrow ones the (all-positive) power series of the moments,
    evaluated elementwise by Horner's rule.  Moments that overflow come
    back as ``inf``, under the caller's ``np.errstate``.  The result is
    age-major: moment m is the contiguous block ``M[m]``.  The powers
    ``h**m`` and their product with the antiderivative coefficients keep
    the by-step (..., n, m) shape, on which that BLAS product rounds as it
    always has.
    """
    m = np.arange(count)
    poly = h[..., None] ** m @ _ANTIDERIVATIVE[:count, :count].T
    out = np.multiply(np.exp(h), poly.transpose(-1, *range(h.ndim)), order="C")
    out -= _ANTIDERIVATIVE[:count, 0].reshape(count, *(1,) * h.ndim)
    narrow = h < _SERIES_WIDTH
    if narrow.any():
        hn = h[narrow]
        total = _SERIES[-1, :count, None] * hn + _SERIES[-2, :count, None]
        for coeff in _SERIES[-3::-1, :count, None]:
            total *= hn
            total += coeff
        total *= hn ** (m + 1)[:, None]
        out[:, narrow] = total
    return out


def _newton_integrals(nodes: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """``I_m = int_0^h exp(u) prod_(l < m) (u - u_l) du``, one factor at a time.

    ``J_(m+1)^(j) = J_m^(j+1) - u_m J_m^(j)`` from ``J_0^(j) = M_j``, where
    ``J_m^(j)`` is ``I_m`` with an extra ``u^j`` and ``u_m = nodes[m] - nodes[0]``;
    as ``u_l <= 0``, no term cancels.  ``nodes`` and ``moments`` are age-major,
    (K, ..., N), and so is the result.
    """
    out = np.empty_like(moments)
    out[0] = moments[0]
    J = moments
    for m in range(len(moments) - 1):
        J = J[1:] - (nodes[m] - nodes[0]) * J[:-1]
        out[m + 1] = J[0]
    return out


def _local_weights(nodes: np.ndarray, used: np.ndarray, integrals: np.ndarray) -> np.ndarray:
    """Weights by age, ``w_d = sum_(d <= m < k_n) D[m, d] I_m``; zero past ``k_n``.

    Every array is age-major and contiguous: ``nodes[d, ..., n-1] =
    lam[..., n-1-d]``, ``integrals[m]`` holds ``I_m`` of every step, and
    ``used[m]`` marks the ages d of each step with ``d <= m < k_n``, so each
    ufunc runs over one contiguous block in place of a K-long inner loop
    per step.  A running product over m of ``u_d - u_m`` gives
    ``1 / D[m, d]`` for every age d at once, and the terms are summed from
    m = 0 up.  Differences of grid values, not of offsets, keep the gap of
    two close old nodes to the last bit.
    """
    for m in range(len(nodes)):
        diff = nodes - nodes[m]
        # the diagonal difference is exactly 0; a factor 1 skips it
        diff[m] = 1.0
        prod = diff if m == 0 else np.multiply(prod, diff, out=prod)
        term = 1.0 / prod
        term *= integrals[m]
        term = np.where(used[m], term, 0.0)
        # an explicit left-to-right sum keeps stacked and single grids bitwise equal
        w = term if m == 0 else np.add(w, term, out=w)
    return w


class _Layout(NamedTuple):
    """Index arrays that depend only on the order schedule, age-major.

    * ``gather[d, n-1] = n - 1 - d`` (0 past the grid start): the node of
      age d of step n;
    * ``used[m, d, n-1]``: ``d <= m < k_n``, the terms of ``w_d``.
    """

    gather: np.ndarray
    used: np.ndarray


@lru_cache(maxsize=64)
def _layout(orders: OrderSchedule) -> _Layout:
    k = np.array(orders.k)
    K = int(k.max())
    age = np.arange(K)
    m, d = age[:, None, None], age[:, None]
    layout = _Layout(gather=np.maximum(np.arange(k.size) - d, 0), used=(d <= m) & (m < k))
    for arr in layout:
        arr.setflags(write=False)
    return layout


def check_order_cap(orders: OrderSchedule, kind: str) -> None:
    """Raise ``ValueError`` unless ``kind`` is a polynomial kind that supports every order."""
    if kind not in POLYNOMIAL_KINDS:
        raise ValueError(f"unknown polynomial kind {kind!r}")
    top = max(orders.k)
    if kind == "taylor" and top > MAX_TAYLOR_ORDER:
        raise ValueError(f"taylor weights support order <= {MAX_TAYLOR_ORDER}, got {top}")


def step_weight_array(lam, orders: OrderSchedule, kind: str, shift) -> np.ndarray:
    """Weights of every step at once, as an ``(..., N, max order)`` array.

    ``lam`` holds one grid of ``N + 1`` nodes along its last axis; any
    leading axes stack independent grids, and each one gets exactly the
    weights a call with that grid alone returns.  Row ``n - 1`` holds the
    weights of step ``n`` (1-based) by age d, the weight on node
    ``lam[..., n-1-d]`` at column d, multiplied by
    ``exp(lam[..., n-1] - shift)``; entries past ``k_n`` are exactly zero.
    ``w[..., n - 1, k_n - 1::-1]`` is step n in basis-index order.
    ``shift`` broadcasts against ``lam[..., :-1]``: a scalar anchor, one
    anchor per grid (shape ``(..., 1)``), or one value per step.

    The result is a view of the kernel's age-major array:
    ``np.moveaxis(w, -1, 0)`` is C-contiguous.
    """
    lam = np.asarray(lam, dtype=float)
    N = lam.shape[-1] - 1
    if len(orders) != N:
        raise ValueError(f"order schedule covers {len(orders)} steps but grid has {N}")
    check_order_cap(orders, kind)
    layout = _layout(orders)
    K = len(layout.gather)
    # nodes by age, lam[..., n-1-d] for step n; ages past k_n are masked
    lead = lam.ndim - 1
    nodes = np.ascontiguousarray(lam[..., layout.gather].transpose(lead, *range(lead), lead + 1))
    used = layout.used.reshape(K, K, *(1,) * lead, N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        integrals = _exp_moments(lam[..., 1:] - lam[..., :-1], K)
        if kind == "lagrange":
            integrals = _newton_integrals(nodes, integrals)
        w = _local_weights(nodes, used, integrals)
        w *= np.exp(lam[..., :-1] - shift)
    if not np.isfinite(w).all():
        first = tuple(np.argwhere(~np.isfinite(w).all(axis=0))[0])  # (grid..., step - 1)
        anchor = np.broadcast_to(shift, w.shape[1:])[first]
        raise OverflowError(
            f"weights of step {first[-1] + 1} are not finite at scale anchor {anchor}"
        )
    return w.transpose(*range(1, lead + 2), 0)


def weights_lagrange(grid: LambdaGrid, orders: OrderSchedule) -> np.ndarray:
    """By-age weights of the interpolating-polynomial solver, anchored at ``grid.lam[-1]``."""
    return step_weight_array(grid.lam, orders, "lagrange", grid.lam[-1])


def weights_taylor(grid: LambdaGrid, orders: OrderSchedule) -> np.ndarray:
    """By-age weights of the Taylor-expansion solver, anchored at ``grid.lam[-1]``."""
    return step_weight_array(grid.lam, orders, "taylor", grid.lam[-1])


def _point_totals(w: np.ndarray) -> np.ndarray:
    """Signed total weight multiplying each evaluation point, from by-age weights.

    Point i is node ``lam[i]``, age d of step ``i + 1 + d``, so its total
    is the diagonal sum ``sum_d w[..., i + d, d]``, added in order of
    increasing step.  ``w`` may stack grids along leading axes.
    """
    totals = w[..., 0].copy()
    for d in range(1, w.shape[-1]):
        totals[..., :-d] += w[..., d:, d]
    return totals


def aggregate(w: np.ndarray, orders: OrderSchedule) -> np.ndarray:
    """Absolute per-evaluation-point totals of by-age weights ``w`` built for ``orders``.

    ``w`` must have shape ``(len(orders), max(orders.k))`` and zeros past each ``k_n``.
    """
    k = np.array(orders.k)
    if w.shape != (k.size, k.max()) or np.any(w[np.arange(k.max()) >= k[:, None]]):
        raise ValueError(f"weights of shape {w.shape} were not built for orders {orders.k}")
    return np.abs(_point_totals(w))

"""Noise-schedule families and time-step grid constructors.

A schedule defines the forward marginal ``x_t | x_0 ~ N(alpha_t x_0,
sigma_t^2 I)`` through the coefficient pair ``(alpha_t, sigma_t)``.  The
half log-SNR ``lambda_t = log(alpha_t / sigma_t)`` is strictly decreasing
in ``t`` and is the natural integration variable for exponential-integrator
solvers, so every schedule exposes both the forward map ``lambda_of_t`` and
its inverse ``t_of_lambda``.

Three families are supported:

* ``vp_linear``  - variance preserving, linearly increasing noise rate
  (parameters ``beta_min``, ``beta_max``),
* ``vp_cosine``  - variance preserving, cosine signal coefficient with a
  small shift ``s`` (valid time capped below 1.0 where the log-SNR
  diverges),
* ``ve_edm``     - variance exploding with ``alpha_t = 1`` and
  ``sigma_t = t`` (time is the noise level).

Grid constructors return a :class:`LambdaGrid`: ``N + 1`` nodes running
from the start time ``T`` down to the end time ``eps``, stored both as
times (decreasing) and as half log-SNR values (increasing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "DomainError",
    "NoiseSchedule",
    "LambdaGrid",
    "uniform_t_grid",
    "uniform_lambda_grid",
    "edm_grid",
    "scheme_grid",
    "lambda_range",
    "FAMILIES",
    "FAMILY_PARAMETERS",
    "SCHEDULE_NAMES",
    "SCHEMES",
]

# the parameters of each family; a schedule keeps the others at their defaults
FAMILY_PARAMETERS = {
    "vp_linear": ("beta_min", "beta_max"), "vp_cosine": ("cosine_shift",), "ve_edm": (),
}
FAMILIES = tuple(FAMILY_PARAMETERS)

# baseline grid schemes, in the order best-of-3 optimization tries them
SCHEMES = ("uniform-t", "uniform-lambda", "edm")

# CLI / JSON names for the families, in the same order
SCHEDULE_NAMES = tuple(family.replace("_", "-") for family in FAMILIES)

# closed time domain of each family: vp_cosine's log-SNR is unbounded at
# t = 1, and below t = 1e-300 the VP maps would lose digits
_T_DOMAINS = {"vp_linear": (1e-300, 1.0), "vp_cosine": (1e-300, 0.992), "ve_edm": (0.002, 80.0)}


class DomainError(ValueError):
    """Raised when a time or log-SNR value lies outside a schedule's domain."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Forward-process coefficients for one named schedule family.

    Build one with :meth:`from_name` rather than instantiating directly.
    """

    family: str
    beta_min: float = 0.1
    beta_max: float = 20.0
    cosine_shift: float = 0.008
    # range of attainable half log-SNR values (min at t_max, max at t_min)
    lambda_domain: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown schedule family {self.family!r}")
        foreign = self.parameters.keys() - FAMILY_PARAMETERS[self.family]
        if foreign:
            raise ValueError(f"{sorted(foreign)} do not apply to {self.name}")
        # chained comparisons, so NaN and infinite parameters fail too
        if self.family == "vp_linear" and not 0 < self.beta_min < self.beta_max < math.inf:
            raise ValueError("vp_linear requires finite 0 < beta_min < beta_max")
        if self.family == "vp_cosine" and not 0 < self.cosine_shift < math.inf:
            raise ValueError("vp_cosine requires a finite positive shift")
        # both ends in one call; lambda decreases in t
        lam_min, lam_max = self.lambda_of_t(np.array(self.t_domain[::-1])).tolist()
        object.__setattr__(self, "lambda_domain", (lam_min, lam_max))

    @classmethod
    def from_name(cls, name: str, **params) -> "NoiseSchedule":
        """Build a schedule from its CLI name ("vp-linear", "vp-cosine", "ve-edm")."""
        if name not in SCHEDULE_NAMES:
            raise ValueError(
                f"unknown schedule name {name!r}; expected one of {sorted(SCHEDULE_NAMES)}"
            )
        return cls(name.replace("-", "_"), **params)

    @property
    def name(self) -> str:
        return self.family.replace("_", "-")

    @property
    def parameters(self) -> dict[str, float]:
        """The parameters off their field defaults; construction allows only the family's."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.init and f.name != "family" and getattr(self, f.name) != f.default
        }

    @property
    def t_domain(self) -> tuple[float, float]:
        """The closed time domain (t_min, t_max)."""
        return _T_DOMAINS[self.family]

    def _check_range(self, x, lo: float, hi: float, what: str, slack: float = 0.0):
        """``x`` as a float array, if all of it lies in [lo - slack, hi + slack]; NaN fails."""
        x = np.asarray(x, dtype=float)
        ok = (x >= lo - slack) & (x <= hi + slack)
        if not ok.all():
            bad = np.atleast_1d(x)[~np.atleast_1d(ok)][0]
            raise DomainError(f"{what} {bad} outside valid domain [{lo}, {hi}] of {self.name}")
        return x

    def _check_lambda(self, lam):
        """``lam`` as a float array, if every value is within 1e-5 of the attainable range."""
        return self._check_range(lam, *self.lambda_domain, "half log-SNR", 1e-5)

    def _log_alpha(self, t):
        """log(alpha_t) of checked times ``t`` on a VP family."""
        if self.family == "vp_linear":
            return -0.25 * t * t * (self.beta_max - self.beta_min) - 0.5 * t * self.beta_min
        # log(cos(theta_0 + d) / cos(theta_0)) with d = t / (1 + s) * pi / 2,
        # expanded so that nothing cancels as t -> 0
        s = self.cosine_shift
        d = t / (1.0 + s) * (math.pi / 2.0)
        tan0 = math.tan(s / (1.0 + s) * (math.pi / 2.0))
        return np.log1p(-2.0 * np.sin(0.5 * d) ** 2 - tan0 * np.sin(d))

    # -- half log-SNR and its inverse -------------------------------------

    def lambda_of_t(self, t):
        """Half log-SNR log(alpha_t / sigma_t); strictly decreasing in t."""
        t = self._check_range(t, *self.t_domain, "time")
        if self.family == "ve_edm":
            return -np.log(t)
        m = self._log_alpha(t)
        return m - 0.5 * np.log(-np.expm1(2.0 * m))

    def t_of_lambda(self, lam):
        """Inverse of :meth:`lambda_of_t`, in closed form for every family.

        ``t`` is non-increasing in ``lam`` over the whole range.  Round
        trips over each family's whole domain hold ``t`` to 2e-13 relative
        (1e-12 at a vp-cosine shift of 1e-12, where sigma^2 is subnormal
        near t = 1e-300) and ``lam`` to 4e-13 * max(1, |lam|), measured at
        shifts 1e-12 to 1000 and (beta_min, beta_max) from (1e-6, 1e-5) to
        (1e-3, 1e6).  Values within 1e-5 of the attainable range (e.g.
        endpoints quoted to a few significant digits) are accepted and
        mapped onto the boundary.
        """
        lam = self._check_lambda(lam)
        if self.family == "ve_edm":
            t = np.exp(-lam)
        elif self.family == "vp_linear":
            # quadratic in t solved explicitly, written to avoid cancellation
            d = self.beta_max - self.beta_min
            tmp = 2.0 * d * np.logaddexp(0.0, -2.0 * lam)
            t = tmp / (np.sqrt(self.beta_min**2 + tmp) + self.beta_min) / d
        else:
            # alpha = cos(theta) / c0 with theta = (t + s) / (1 + s) * pi / 2;
            # arcsin of sin(theta - theta_0), written in d = 1 - alpha and
            # 1 - (c0 alpha)^2 = r0^2 + e so that nothing cancels as t -> 0
            # or as c0 -> 1 at a small shift
            s = self.cosine_shift
            theta0 = s / (1.0 + s) * math.pi / 2.0
            c0, r0 = math.cos(theta0), math.sin(theta0)
            d = -np.expm1(-0.5 * np.logaddexp(0.0, -2.0 * lam))
            e = c0 * c0 * d * (2.0 - d)
            sin_dtheta = c0 * (e / (np.sqrt(r0 * r0 + e) + r0) + d * r0)
            t = (1.0 + s) * (2.0 / math.pi) * np.arcsin(sin_dtheta)
        return t.clip(*self.t_domain)

    # -- coefficients as functions of the half log-SNR --------------------

    def log_alpha_sigma_of_lambda(self, lam):
        """(log alpha, log sigma) at the time where the half log-SNR equals ``lam``.

        For VP families both coefficients are determined by the log-SNR
        alone (alpha^2 + sigma^2 = 1): alpha = (1 + exp(-2 lam))^(-1/2) and
        sigma = (1 + exp(2 lam))^(-1/2).  For ve_edm alpha is 1 and sigma
        is exp(-lam).  No time inversion is performed.
        """
        lam = np.asarray(lam, dtype=float)
        if self.family == "ve_edm":
            return np.zeros_like(lam), -lam
        return -0.5 * np.logaddexp(0.0, -2.0 * lam), -0.5 * np.logaddexp(0.0, 2.0 * lam)

    def alpha_sigma_of_lambda(self, lam):
        """(alpha, sigma) at the time where the half log-SNR equals ``lam``."""
        log_alpha, log_sigma = self.log_alpha_sigma_of_lambda(lam)
        return np.exp(log_alpha), np.exp(log_sigma)


@dataclass(frozen=True)
class LambdaGrid:
    """A discretization of the sampling interval into ``N`` steps.

    ``lam`` holds the half log-SNR values of the nodes in strictly
    increasing order (the first node corresponds to the start time ``T``,
    the last to the end time ``eps``); ``t`` holds the matching times in
    strictly decreasing order.
    """

    lam: np.ndarray
    t: np.ndarray
    T: float
    eps: float

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float, copy=True)
        t = np.array(self.t, dtype=float, copy=True)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "t", t)
        if lam.ndim != 1 or lam.shape != t.shape or lam.size < 2:
            raise ValueError("grid needs matching 1-d arrays with at least 2 nodes")
        if not (lam[1:] > lam[:-1]).all():
            raise ValueError("half log-SNR nodes must be strictly increasing")
        if not (t[1:] < t[:-1]).all():
            raise ValueError("time nodes must be strictly decreasing")
        if t[0] != self.T or t[-1] != self.eps:
            raise ValueError("time endpoints must equal (T, eps) exactly")
        lam.setflags(write=False)
        t.setflags(write=False)

    @classmethod
    def from_lambda(cls, schedule: NoiseSchedule, lam, T: float, eps: float) -> "LambdaGrid":
        """Grid on the nodes ``lam``, whose first and last entries belong to T and eps.

        The endpoint times are taken as given, so they stay exact; the
        interior times come from the schedule's inverse map.
        """
        lam = np.asarray(lam, dtype=float)
        t = np.empty_like(lam)
        t[0], t[-1] = T, eps
        if lam.size > 2:
            t[1:-1] = schedule.t_of_lambda(lam[1:-1])
        return cls(lam=lam, t=t, T=T, eps=eps)

    @property
    def n_steps(self) -> int:
        return self.lam.size - 1


def lambda_range(schedule: NoiseSchedule, N: int, T: float, eps: float) -> tuple[float, float]:
    """(lambda(T), lambda(eps)) after checking N >= 1, T > eps and the time domain."""
    if N < 1:
        raise ValueError("need at least one step")
    if not T > eps:
        raise ValueError(f"invalid range: T={T} must exceed eps={eps}")
    return float(schedule.lambda_of_t(T)), float(schedule.lambda_of_t(eps))


def uniform_t_grid(schedule: NoiseSchedule, N: int, T: float, eps: float) -> LambdaGrid:
    """Nodes equally spaced in time between T and eps."""
    lambda_range(schedule, N, T, eps)
    n = np.arange(N + 1)
    t = T + n / N * (eps - T)
    t[0], t[-1] = T, eps
    lam = schedule.lambda_of_t(t)
    return LambdaGrid(lam=lam, t=t, T=T, eps=eps)


def uniform_lambda_grid(schedule: NoiseSchedule, N: int, T: float, eps: float) -> LambdaGrid:
    """Nodes equally spaced in the half log-SNR between its values at T and eps."""
    lam_T, lam_eps = lambda_range(schedule, N, T, eps)
    n = np.arange(N + 1)
    lam = lam_T + n / N * (lam_eps - lam_T)
    lam[0], lam[-1] = lam_T, lam_eps
    return LambdaGrid.from_lambda(schedule, lam, T, eps)


def edm_grid(schedule: NoiseSchedule, N: int, T: float, eps: float, rho: int = 7) -> LambdaGrid:
    """Nodes equally spaced in the rho-th root of the reciprocal root-SNR.

    With ``kappa = sigma/alpha`` the nodes satisfy ``kappa_n^(1/rho)``
    uniform between its values at T and eps; rho = 1 reduces to uniform
    spacing in kappa itself.
    """
    lam_T, lam_eps = lambda_range(schedule, N, T, eps)
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    # kappa^(1/rho) = exp(-lambda/rho)
    root_T = math.exp(-lam_T / rho)
    root_eps = math.exp(-lam_eps / rho)
    # interior nodes only: at a tiny eps the last root rounds to 0
    n = np.arange(1, N)
    lam = np.empty(N + 1)
    lam[0], lam[-1] = lam_T, lam_eps
    lam[1:-1] = -rho * np.log(root_T + n / N * (root_eps - root_T))
    return LambdaGrid.from_lambda(schedule, lam, T, eps)


def scheme_grid(
    scheme: str, schedule: NoiseSchedule, N: int, T: float, eps: float, rho: int
) -> LambdaGrid:
    """Grid of the named baseline scheme (one of :data:`SCHEMES`).

    ``rho`` is used by the ``edm`` scheme only.
    """
    if scheme == "uniform-t":
        return uniform_t_grid(schedule, N, T, eps)
    if scheme == "uniform-lambda":
        return uniform_lambda_grid(schedule, N, T, eps)
    if scheme == "edm":
        return edm_grid(schedule, N, T, eps, rho)
    raise ValueError(f"unknown grid scheme {scheme!r}; expected one of {SCHEMES}")

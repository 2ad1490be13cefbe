"""On-disk JSON format for schedules.

Files are UTF-8 JSON with a fixed key order; floats rely on Python's
shortest-round-trip repr (17 significant digits where needed), so
emit -> parse -> emit reproduces the bytes exactly.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .objective import ObjectiveSpec
from .schedules import FAMILY_PARAMETERS, SCHEMES, LambdaGrid, NoiseSchedule
from .weights import OrderSchedule

__all__ = ["ScheduleFile", "SCHEMA_VERSION", "write_texts"]

SCHEMA_VERSION = 1
# required keys in file order; the optional ones follow in this order
_KEYS = (
    "schema_version", "schedule_family", "T", "eps", "N", "lambda", "t", "orders",
    "polynomial_kind", "p", "objective", "init", "tool_version",
)
_PARAMETER_KEYS = ("beta_min", "beta_max", "cosine_shift")
_OPTIONAL_KEYS = (*_PARAMETER_KEYS, "converged")
_ALLOWED_KEYS = frozenset(_KEYS + _OPTIONAL_KEYS)
_ATTRIBUTE = {"lambda": "lam"}  # the one key that is a Python keyword
# relative tolerance of an interior node's t against t_of_lambda(lambda),
# far above the few-ulp spread of the map between libm builds
_NODE_RTOL = 1e-10
# rtol = atol of lambda[0] and lambda[N] against lambda(T) and lambda(eps), under
# half the 1e-12 to which evaluate_schedules requires grids to share them
_END_TOL = 4e-13


def write_texts(*outputs) -> None:
    """Write each ``(path, text)`` as UTF-8 over its path in place, every path opened first.

    No ``O_TRUNC``, so no ext4 truncate-and-flush.  If any path cannot be
    opened, or two paths name the same regular file (by any spelling or
    link), no output is written; on any failure the files this call
    created are removed, and the others keep what was written to them.
    """
    fds, created = [], []
    try:
        for path, _ in outputs:
            existed = os.path.exists(path)  # through a link, whether its target does
            fds.append(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666))
            created += [] if existed else [os.path.realpath(path)]
        infos, seen = [os.fstat(fd) for fd in fds], {}
        for i, info in enumerate(infos):
            first = seen.setdefault((info.st_dev, info.st_ino), i)
            if first != i and stat.S_ISREG(info.st_mode):  # /dev/null may be given twice
                raise OSError(f"outputs {outputs[first][0]} and {outputs[i][0]} are the same file")
        for fd, info, (_, text) in zip(fds, infos, outputs):
            view = memoryview(text.encode("utf-8"))
            if stat.S_ISREG(info.st_mode):  # /dev/null and pipes cannot be cut
                os.ftruncate(fd, len(view))  # first: a stopped write leaves nothing past the new end
            while view:
                view = view[os.write(fd, view):]
    except BaseException:
        for path in created:
            os.unlink(path)
        raise
    finally:
        for fd in fds:
            os.close(fd)


@dataclass(frozen=True)
class ScheduleFile:
    schedule_family: str
    T: float
    eps: float
    N: int
    lam: list[float]
    t: list[float]
    orders: list[int]
    polynomial_kind: str
    p: int
    objective: float
    init: str
    schema_version: int = SCHEMA_VERSION
    tool_version: str = __version__
    beta_min: float | None = None
    beta_max: float | None = None
    cosine_shift: float | None = None
    converged: bool | None = None

    def __post_init__(self):
        # fields keep their JSON types, so emit reproduces the parsed bytes;
        # bool is an int subclass, so compare types exactly
        if type(self.schema_version) is not int or self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"schema version {self.schema_version!r} is not supported (need {SCHEMA_VERSION})"
            )
        if type(self.tool_version) is not str:
            raise ValueError("tool_version must be a string")
        if {*map(type, (self.N, self.p, *self.orders))} != {int}:
            raise ValueError("N, p and the orders must be integers")
        numbers = (self.T, self.eps, self.objective, *self.lam, *self.t)
        if not {*map(type, numbers)} <= {int, float}:
            raise ValueError("T, eps, objective, lambda and t must be numbers")
        if not all(map(math.isfinite, numbers)):
            raise ValueError("T, eps, objective, lambda and t must be finite")
        if self.init not in SCHEMES:
            raise ValueError(f"init must be one of {SCHEMES}")
        if not (self.converged is None or isinstance(self.converged, bool)):
            raise ValueError("converged must be true or false when present")
        if any(type(v) not in (int, float) for v in self.family_parameters.values()):
            raise ValueError("beta_min, beta_max and cosine_shift must be numbers when present")
        # building the spec checks the family and its parameters, p, the
        # polynomial kind, the orders and T and eps against the time domain
        self.spec
        # a foreign parameter at its default passes the schedule's own check
        foreign = self.family_parameters.keys() - FAMILY_PARAMETERS[self.spec.schedule.family]
        if foreign:
            raise ValueError(f"{sorted(foreign)} do not apply to {self.schedule_family}")
        if len(self.lam) != self.N + 1 or len(self.t) != self.N + 1:
            raise ValueError("node arrays must have N + 1 entries")
        # node order and exact endpoint times, as a grid requires them
        self.grid
        self._check_interior_times()
        for i, end, at in zip((0, self.N), self.spec.lambda_endpoints, ("T", "eps")):
            if not abs(self.lam[i] - end) <= _END_TOL * (1.0 + abs(end)):
                raise ValueError(f"lambda[{i}] = {self.lam[i]!r} does not match the value "
                                 f"{end!r} that {self.schedule_family} takes at {at}")

    @classmethod
    def from_grid(
        cls,
        grid: LambdaGrid,
        schedule_family: str,
        orders,
        polynomial_kind: str,
        p: int,
        objective: float,
        init: str,
        converged: bool | None = None,
        **family_parameters: float,
    ) -> "ScheduleFile":
        """File of ``grid``; ``family_parameters`` as ``NoiseSchedule.parameters`` gives them."""
        schedule = NoiseSchedule.from_name(schedule_family, **family_parameters)
        spec = ObjectiveSpec(
            schedule, grid.n_steps, float(grid.T), float(grid.eps), orders, int(p), polynomial_kind
        )
        return cls._of_spec(spec, grid, objective, init, converged)

    @classmethod
    def _of_spec(
        cls, spec: ObjectiveSpec, grid: LambdaGrid, objective: float, init: str,
        converged: bool | None = None,
    ) -> "ScheduleFile":
        """File of ``grid``, a grid built for ``spec``.

        Validation takes ``spec`` and ``grid`` as they are instead of
        building them again from the fields; every check on the fields
        still runs against them.
        """
        out = cls.__new__(cls)
        vars(out).update(spec=spec, grid=grid)  # the cached properties __post_init__ reads
        out.__init__(
            schedule_family=spec.schedule.name,
            T=float(grid.T),
            eps=float(grid.eps),
            N=grid.n_steps,
            lam=grid.lam.tolist(),
            t=grid.t.tolist(),
            orders=list(spec.orders.k),
            polynomial_kind=spec.polynomial_kind,
            p=spec.p,
            objective=float(objective),
            init=init,
            converged=converged,
            **spec.schedule.parameters,
        )
        return out

    @property
    def family_parameters(self) -> dict[str, float]:
        """The family parameters the file records, by ``NoiseSchedule`` field name."""
        return {
            name: getattr(self, name)
            for name in _PARAMETER_KEYS
            if getattr(self, name) is not None
        }

    @cached_property
    def spec(self) -> ObjectiveSpec:
        """The objective the file's fields describe, built once by validation."""
        schedule = NoiseSchedule.from_name(self.schedule_family, **self.family_parameters)
        return ObjectiveSpec(
            schedule, self.N, self.T, self.eps,
            OrderSchedule(tuple(self.orders)), self.p, self.polynomial_kind,
        )

    @cached_property
    def grid(self) -> LambdaGrid:
        """The file's nodes as a grid, built once by validation."""
        return LambdaGrid(lam=self.lam, t=self.t, T=self.T, eps=self.eps)

    def emit(self) -> str:
        """The file's text as ``json.dumps(payload, indent=2) + "\\n"`` gives it, in one pass."""
        # validation leaves ints, finite floats, bools, strings and non-empty lists of numbers
        items = []
        for key in _KEYS + _OPTIONAL_KEYS:
            value = getattr(self, _ATTRIBUTE.get(key, key))
            if isinstance(value, (list, tuple)):
                items.append(f'  "{key}": [\n    ' + ",\n    ".join(map(repr, value)) + "\n  ]")
            elif value is not None:  # None: an optional key the file leaves out
                text = json.dumps(value) if isinstance(value, (str, bool)) else repr(value)
                items.append(f'  "{key}": {text}')
        return "{\n" + ",\n".join(items) + "\n}\n"

    @classmethod
    def parse(cls, text: str) -> "ScheduleFile":
        payload = json.loads(text)
        fields = {_ATTRIBUTE.get(key, key): payload[key] for key in _KEYS}
        # a misspelt key would otherwise be dropped without a word
        unknown = payload.keys() - _ALLOWED_KEYS
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        return cls(**fields, **{key: payload.get(key) for key in _OPTIONAL_KEYS})

    def _check_interior_times(self) -> None:
        """Raise ``ValueError`` unless each interior node's ``t`` is ``t_of_lambda(lambda)``.

        To a relative ``_NODE_RTOL``.  Grids built from log-SNR values
        store ``t_of_lambda(lambda)`` and uniform-t grids ``lambda_of_t(t)``;
        the inverse map round-trips either to 1e-12 relative.
        """
        lam, t = self.grid.lam[1:-1], self.grid.t[1:-1]
        mapped = self.spec.schedule.t_of_lambda(lam)
        ok = np.abs(mapped - t) <= _NODE_RTOL * t
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0]) + 1
            raise ValueError(
                f"t[{i}] = {self.t[i]!r} does not match lambda[{i}] = {self.lam[i]!r}, "
                f"which {self.schedule_family} maps to t = {float(mapped[i - 1])!r}"
            )

    def write(self, path) -> None:
        write_texts((path, self.emit()))

    @classmethod
    def read(cls, path) -> "ScheduleFile":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

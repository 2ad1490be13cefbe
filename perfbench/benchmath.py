"""Summary statistics used by the benchmark (standard library only)."""

from __future__ import annotations

import math


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail_percentile(values, target: float = 0.9, beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile, capped at ``target``, with ``beyond`` samples above it.

    Returns ``(value, fraction, n)``: the sample of rank ``k`` (1-based,
    ascending), its fraction ``k / n`` and the sample count.  With
    ``n <= beyond`` no rank qualifies; the maximum is returned with
    fraction 1.0 so the caller can label it as such.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    k = min(math.floor(target * n + 1e-9), n - beyond)
    if k < 1:
        return xs[-1], 1.0, n
    return xs[k - 1], k / n, n


def geometric_mean(values) -> float:
    xs = list(values)
    if not xs or any(not x > 0 for x in xs):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def _ranks(values) -> list[float]:
    """Ranks starting at 1; tied values share the mean of their ranks."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for m in range(i, j + 1):
            ranks[order[m]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation; NaN when either series is constant."""
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two equally long series of at least 2 values")
    rx, ry = _ranks(list(x)), _ranks(list(y))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return math.nan
    return cov / math.sqrt(vx * vy)


def drift(current: dict, record: dict) -> tuple[float, str]:
    """Largest relative deviation of recorded outputs, and where it occurs.

    Both arguments map an output name to a list of numbers.  Each list is
    compared as a whole: its deviation is the largest absolute
    difference divided by the largest recorded magnitude, so entries
    that are zero up to round-off cannot inflate it.  A recorded output
    that is missing or has another length counts as infinite drift.
    """
    worst, where = 0.0, ""
    for name, expected in record.items():
        got = current.get(name)
        if got is None or len(got) != len(expected):
            return math.inf, name
        scale = max((abs(v) for v in expected), default=0.0)
        diff = max((abs(a - b) for a, b in zip(got, expected)), default=0.0)
        if diff == 0.0:
            continue
        value = diff / scale if scale > 0 else math.inf
        if not value <= worst:
            worst, where = value, name
    return worst, where

"""Harrell-Davis quantiles: a weighted mean of every order statistic.

A workload's ops fall into a few dozen kinds of very different cost, so
the sorted latencies have gaps, and a single order statistic near a gap
jumps across it from run to run.  The Harrell-Davis estimator (Harrell
and Davis, Biometrika 69, 1982) weights the i-th smallest of n samples by
the mass a Beta(p(n+1), (1-p)(n+1)) distribution puts on ((i-1)/n, i/n),
so the estimate moves smoothly as samples move.
"""

from __future__ import annotations

from math import exp, lgamma, log

_EPS = 3e-14
_TINY = 1e-300


def _continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, by Lentz's method."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _continued_fraction(a, b, x) / a
    return 1.0 - front * _continued_fraction(b, a, 1.0 - x) / b


def harrell_davis(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of `values`."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))

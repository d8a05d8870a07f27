"""Two-sample Kolmogorov-Smirnov testing on absorption-time samples."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SampleSet:
    """Unordered multiset of real observations (absorption times)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("sample must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("sample contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n_a: int
    n_b: int


def _as_sample(s) -> SampleSet:
    return s if isinstance(s, SampleSet) else SampleSet(np.asarray(s, dtype=float))


def ecdf(s: SampleSet, t):
    """Right-continuous empirical CDF of ``s`` at ``t``: (#values <= t)/|s|.

    Examples
    --------
    >>> ecdf(SampleSet(np.array([1.0, 2.0, 3.0])), 2.0)
    0.6666666666666666
    """
    s = _as_sample(s)
    sorted_vals = np.sort(s.values)
    out = np.searchsorted(sorted_vals, t, side="right") / s.size
    return float(out) if np.ndim(t) == 0 else out


def _kolmogorov_sf(x: float) -> float:
    """Survival function of the limiting Kolmogorov distribution,
    P(sup|B(t)| > x) for a Brownian bridge B.

    The two series and their order of operations are those of
    ``scipy.special.kolmogorov``, so the result is bit-identical to it:
    for x <= 0.82 one minus the theta series
    ``sqrt(2 pi)/x * u (1 + u^8 + u^24 + u^48)`` with
    ``u = exp(-pi^2 / (8 x^2))``; above 0.82 ``2 (v - v^4 + v^9 - v^16)``
    with ``v = exp(-2 x^2)``.  At x <= 0.1 the theta series is below
    1e-50, so one minus it is exactly 1 (scipy's branch for an underflowing
    u lies there too).  A NaN propagates.
    """
    if x <= 0.1:
        return 1.0
    if x <= 0.82:
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u8 = math.exp(logu8)
        cdf = 1 + u8 * (1 + u8 * u8 * (1 + math.pow(u8, 3)))
        return 1 - w * math.exp(logu8 / 8) * cdf
    v = math.exp(-2 * x * x)
    v3 = math.pow(v, 3)
    return 2 * v * (1 - v3 * (1 - v3 * (v * v) * (1 - v3 * v3 * v)))


def ks_two_sample(a: SampleSet, b: SampleSet) -> KsResult:
    """Two-sided two-sample KS test.

    The statistic is the exact supremum of |F_a - F_b| over the pooled
    jump points; the p-value comes from the asymptotic Kolmogorov
    distribution at sqrt(n_a n_b / (n_a + n_b)) * D
    (:func:`_kolmogorov_sf`, bit-identical to ``scipy.special.kolmogorov``).
    """
    a, b = _as_sample(a), _as_sample(b)
    sa = np.sort(a.values)
    sb = np.sort(b.values)
    pooled = np.concatenate([sa, sb])
    fa = np.searchsorted(sa, pooled, side="right") / sa.size
    fb = np.searchsorted(sb, pooled, side="right") / sb.size
    d = float(np.abs(fa - fb).max())
    n_eff = sa.size * sb.size / (sa.size + sb.size)
    p = _kolmogorov_sf(math.sqrt(n_eff) * d)
    return KsResult(
        statistic=d,
        p_value=min(max(p, 0.0), 1.0),
        n_a=sa.size,
        n_b=sb.size,
    )

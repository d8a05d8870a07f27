"""Time-scaling families for inhomogeneous phase-type models.

A family supplies a positive scaling function ``h(t)`` (the generator at
calendar time t is ``h(t) * L``), its accumulated version
``g_inv(t) = int_0^t h(s) ds`` mapping calendar time to operational time,
the inverse map ``g``, and (through ``_terms``) the two beta-derivatives
needed by the score of the absorption-time likelihood, which
``_objective_terms`` evaluates in the form the beta objective sums.

Families
--------
gompertz   h(t) = exp(beta t)          g_inv(t) = (exp(beta t) - 1) / beta
weibull    h(t) = beta t^(beta-1)      g_inv(t) = t^beta
identity   h(t) = 1                    g_inv(t) = t   (homogeneous model)

All functions accept scalars or arrays of times and are vectorised.
Gompertz values overflow float64 once beta*t exceeds ~709; g_inv then
returns +inf (the downstream likelihood reports the underflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

GOMPERTZ = "gompertz"
WEIBULL = "weibull"
IDENTITY = "identity"

_KINDS = (GOMPERTZ, WEIBULL, IDENTITY)


def _check_times(t, allow_zero: bool) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("times must be finite")
    if np.any(arr < 0.0):
        raise ValidationError("times must be non-negative")
    if not allow_zero and np.any(arr == 0.0):
        raise ValidationError("t = 0 is outside this family's domain")
    return arr


def _scalar_like(t, arr: np.ndarray):
    return float(arr) if np.isscalar(t) or np.ndim(t) == 0 else arr


@dataclass(frozen=True)
class ScalingFamily:
    """One member of a time-scaling family: a kind plus its shape parameter.

    ``beta`` must be positive and finite for gompertz and weibull; it is
    ignored by identity.
    """

    kind: str
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(
                f"unknown scaling family {self.kind!r}; expected one of {_KINDS}"
            )
        beta = float(self.beta)
        if self.kind != IDENTITY and not (np.isfinite(beta) and beta > 0.0):
            raise ValidationError(f"beta must be positive and finite, got {beta!r}")
        object.__setattr__(self, "beta", beta)

    # -- scaling function and its accumulated form ---------------------

    def h(self, t):
        """Scaling function h(t) > 0.

        Weibull with beta < 1 diverges at t = 0, so t = 0 is rejected
        there; Weibull with beta > 1 has h(0) = 0 (a boundary zero, the
        density handles it), beta = 1 gives h identically 1.
        """
        arr = _check_times(t, allow_zero=self.kind != WEIBULL or self.beta >= 1.0)
        return _scalar_like(t, self._terms(arr)[1])

    def g_inv(self, t):
        """Operational time g_inv(t) = int_0^t h(s) ds; increasing, 0 at 0."""
        (s,) = self._terms(_check_times(t, allow_zero=True), g_inv_only=True)
        return _scalar_like(t, s)

    def g(self, s):
        """Calendar time for operational time s; inverse of :meth:`g_inv`."""
        arr = np.asarray(s, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValidationError("operational times must be finite")
        if np.any(arr < 0.0):
            raise ValidationError("operational times must be non-negative")
        return _scalar_like(s, self._g(arr))

    def _g(self, arr: np.ndarray) -> np.ndarray:
        """:meth:`g` at operational times already checked."""
        if self.kind == IDENTITY:
            return arr.copy()
        if self.kind == GOMPERTZ:
            return np.log1p(self.beta * arr) / self.beta
        return arr ** (1.0 / self.beta)

    def _terms(self, arr: np.ndarray, g_inv_only: bool = False) -> tuple:
        """``(g_inv, h, dh/dbeta, int_dh_dbeta)`` at times already checked.

        The pointwise formulas of each family.  The terms share exp(beta t)
        and expm1(beta t) (gompertz) or t^beta, t^(beta-1) and log t
        (weibull); log t is taken as 0 at t = 0, which gives both of its
        terms their limit 0 there.  ``g_inv_only`` makes ``(g_inv,)``
        alone.  Overflow gives inf or nan without a warning; the callers
        check.
        """
        b = self.beta
        if self.kind == IDENTITY:
            terms = (arr.copy(), np.ones_like(arr), np.zeros_like(arr), np.zeros_like(arr))
            return terms[:1] if g_inv_only else terms
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.kind == GOMPERTZ:
                bt = b * arr
                m1 = np.expm1(bt)
                if g_inv_only:
                    return (m1 / b,)
                e = np.exp(bt)
                dh = arr * e
                return m1 / b, e, dh, dh / b - m1 / (b * b)
            pb = arr**b
            if g_inv_only:
                return (pb,)
            log_t = np.log(np.where(arr > 0.0, arr, 1.0))
            p1 = arr ** (b - 1.0)
            h = np.ones_like(arr) if b == 1.0 else b * p1
            return pb, h, p1 * (1.0 + b * log_t), pb * log_t

    def _objective_terms(self, t: np.ndarray, log_t: np.ndarray, sum_t: float,
                         sum_log_t: float) -> tuple:
        """``(g_inv, int_dh_dbeta, sum log h, sum dh/dbeta / h)`` over
        absorption times ``t``, all > 0, for the beta objective.

        ``log_t``, ``sum_t`` and ``sum_log_t`` are log t, the sum of t and
        the sum of log t, which do not depend on beta.  The two sums are
        closed forms: gompertz log h = beta t and dh/dbeta / h = t; weibull
        log h = log beta + (beta - 1) log t and dh/dbeta / h = 1 / beta +
        log t.  Weibull's g_inv is exp(beta log t).  Overflow gives inf or
        nan, with numpy's warnings unless the caller silences them; the
        callers check.
        """
        b = self.beta
        if self.kind == IDENTITY:
            return t, np.zeros_like(t), 0.0, 0.0
        if self.kind == GOMPERTZ:
            m1 = np.expm1(b * t)
            g_inv = m1 / b
            return g_inv, (t * (m1 + 1.0) - g_inv) / b, b * sum_t, sum_t
        g_inv = np.exp(b * log_t)
        sum_log_h = t.size * math.log(b) + (b - 1.0) * sum_log_t
        return g_inv, g_inv * log_t, sum_log_h, t.size / b + sum_log_t

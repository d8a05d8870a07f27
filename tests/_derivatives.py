"""The beta-derivatives of each family's scaling function, written out in
closed form.

The score of the beta objective sums them; the package evaluates only
those sums, in ``scaling._objective_terms``.  log t is taken as 0 at
t = 0, which gives both Weibull terms their limit there.
"""

import numpy as np

from iphfit import GOMPERTZ, IDENTITY


def _log(t):
    return np.log(np.where(t > 0.0, t, 1.0))


def dh_dbeta(fam, t):
    """dh/dbeta at t: gompertz t e^(beta t), weibull t^(beta - 1)
    (1 + beta log t), identity 0."""
    t, b = np.asarray(t, dtype=float), fam.beta
    if fam.kind == IDENTITY:
        return np.zeros_like(t)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if fam.kind == GOMPERTZ:
            return t * np.exp(b * t)
        return t ** (b - 1.0) * (1.0 + b * _log(t))


def int_dh_dbeta(fam, t):
    """int_0^t dh/dbeta ds, the beta-derivative of g_inv(t): gompertz
    t e^(beta t) / beta - (e^(beta t) - 1) / beta^2, weibull t^beta log t,
    identity 0."""
    t, b = np.asarray(t, dtype=float), fam.beta
    if fam.kind == IDENTITY:
        return np.zeros_like(t)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if fam.kind == GOMPERTZ:
            return t * np.exp(b * t) / b - np.expm1(b * t) / (b * b)
        return t**b * _log(t)

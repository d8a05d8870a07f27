"""The beta objective against a frozen reference of its arithmetic.

The reference below computes the objective the plain way: one eigen
column at a time as a whole expression, summed in the kernel's column
order and then the constant, each caller applying the overflow rule
(density 0, ratio nan where ``g_inv`` overflows) and checking its
arrays before it sums them; Weibull's ``log t`` taken at every call and
the family's two sums in their closed forms.  Every case must give the
same log-likelihood and score bits (nan-aware), the same kernel arrays,
and the same warnings, so a faster evaluation of the objective cannot
move a fit.  The columns themselves are checked against the matrix
exponential in ``test_eigen_route.py``.
"""

import math
import warnings

import numpy as np
import pytest

from iphfit import (
    GOMPERTZ,
    IDENTITY,
    WEIBULL,
    BetaObjective,
    InitialDistribution,
    RandomStream,
    ScalingFamily,
    SubIntensityMatrix,
    iph_cdf,
    iph_density,
    matrix_exponential,
)
from iphfit.likelihood import _evaluate
from iphfit.simulate import simulate_paths
from iphfit.studies import GOMPERTZ_STUDY, WEIBULL_STUDY

JORDAN_PI = InitialDistribution(np.array([0.6, 0.4]))
JORDAN_LAM = SubIntensityMatrix(np.array([[-1.0, 1.0], [0.0, -1.0]]))


# ---------------------------------------------------------------------------
# the reference


def ref_terms(kind, b, t):
    """``(g_inv, int_dh_dbeta, sum log h, sum dh/dbeta / h)`` at t > 0."""
    if kind == IDENTITY:
        return t.copy(), np.zeros_like(t), 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == GOMPERTZ:
            m1 = np.expm1(b * t)
            g_inv = m1 / b
            sum_t = float(t.sum())
            return g_inv, (t * (m1 + 1.0) - g_inv) / b, b * sum_t, sum_t
        log_t = np.log(t)
        g_inv = np.exp(b * log_t)
        sum_log_t = float(log_t.sum())
        return (g_inv, g_inv * log_t, t.size * math.log(b) + (b - 1.0) * sum_log_t,
                t.size / b + sum_log_t)


def ref_pointwise(fam, t):
    """``(g_inv, h)`` at t >= 0 as the public density and CDF take them."""
    b = fam.beta
    if fam.kind == IDENTITY:
        return t.copy(), np.ones_like(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if fam.kind == GOMPERTZ:
            return np.expm1(b * t) / b, np.exp(b * t)
        h = np.ones_like(t) if b == 1.0 else np.where(t > 0.0, b * t ** (b - 1.0), 0.0)
        return t**b, h


def ref_column(kern, row, a, b, p, q, s):
    """One column of coefficient row ``row`` at finite s >= 0."""
    e = np.exp(s * a)
    if not b:
        return p[row] * e
    phase = np.minimum(s, 1e300 / max(col[1] for col in kern._cols))
    return p[row] * (e * np.cos(phase * b)) - q[row] * (e * np.sin(phase * b))


def ref_shifted(kern, row, s):
    total = None
    for a, b, p, q in kern._cols:
        col = ref_column(kern, row, a, b, p, q, s)
        total = col if total is None else total + col
    return np.full(s.shape, kern._const[row]) if total is None else total + kern._const[row]


def ref_eig_eval(kern, row, s):
    return ref_shifted(kern, row, s) * np.exp(s * kern._shift)


def ref_expm_eval(kern, right, s):
    flat = np.atleast_1d(s)
    out = np.array([kern._pi @ matrix_exponential(kern._arr, si) @ right for si in flat])
    return out.reshape(np.shape(s))


def ref_density_and_ratio(kern, s):
    if kern._eig_ok:
        den = ref_shifted(kern, 0, s)
        num = ref_shifted(kern, 1, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            nz = den != 0.0
            ratio = np.where(nz, num / np.where(nz, den, 1.0), np.nan)
        return den * np.exp(s * kern._shift), ratio
    exps = [matrix_exponential(kern._arr, si) for si in s]
    a = np.array([kern._pi @ e @ kern._exit for e in exps])
    b = np.array([kern._pi @ kern._arr @ e @ kern._exit for e in exps])
    with np.errstate(divide="ignore", invalid="ignore"):
        return a, b / a


def ref_kernel_arrays(obj, beta):
    """The kernel's density and ratio with the caller's overflow masking."""
    g_inv = ref_terms(obj.family, float(beta), obj.absorption_times)[0]
    finite = np.isfinite(g_inv)
    a, ratio = ref_density_and_ratio(obj._kernel, np.where(finite, g_inv, 0.0))
    return np.where(finite, a, 0.0), np.where(finite, ratio, np.nan)


def ref_evaluate(obj, beta):
    t = obj.absorption_times
    _g_inv, int_dh, sum_log_h, sum_dlog_h = ref_terms(obj.family, float(beta), t)
    a, ratio = ref_kernel_arrays(obj, beta)
    bad = np.nonzero(~np.isfinite(a) | (a <= 0.0))[0]
    if bad.size:
        warnings.warn(f"density underflow at observation {int(bad[0])} (t={t[bad[0]]:g})",
                      RuntimeWarning)
        ell = -np.inf
    else:
        ell = float(sum_log_h + np.log(a).sum())
    bad = np.nonzero(~np.isfinite(ratio))[0]
    if bad.size:
        warnings.warn(f"score underflow at observation {int(bad[0])} (t={t[bad[0]]:g})",
                      RuntimeWarning)
        grad = float("nan")
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            grad = float(sum_dlog_h + (int_dh * ratio).sum())
    return ell, grad


def ref_iph_density(pi, lam, fam, t):
    obj = BetaObjective(IDENTITY, pi, lam, np.ones(1))  # for its kernel
    t_arr = np.asarray(t, dtype=float)
    s, h = ref_pointwise(fam, t_arr)
    finite = np.isfinite(s)
    out = np.zeros(s.shape)
    if np.any(finite):
        masked = np.where(finite, s, 0.0)
        if obj._kernel._eig_ok:
            df = ref_eig_eval(obj._kernel, 0, masked)
        else:
            df = ref_expm_eval(obj._kernel, obj._kernel._exit, masked)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = h * df
        out = np.where(finite & (df != 0.0), np.maximum(vals, 0.0), 0.0)
    return float(out) if np.ndim(t) == 0 else out


def ref_iph_cdf(pi, lam, fam, t):
    obj = BetaObjective(IDENTITY, pi, lam, np.ones(1))
    s = ref_pointwise(fam, np.asarray(t, dtype=float))[0]
    finite = np.isfinite(s)
    out = np.ones(s.shape)
    if np.any(finite):
        masked = np.where(finite, s, 0.0)
        if obj._kernel._eig_ok:
            surv = ref_eig_eval(obj._kernel, 2, masked)
        else:
            surv = ref_expm_eval(obj._kernel, obj._kernel._ones, masked)
        out = np.where(finite, np.clip(1.0 - surv, 0.0, 1.0), 1.0)
    return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# comparison


def _bits(x):
    """The bytes of ``x`` with every nan made the same nan."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def _recorded(fn, *args):
    """``fn(*args)``, or the type and message of what it raised, with the
    warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as err:  # the same error is part of the same behaviour
            out = (type(err), str(err))
    return out, [(w.category, str(w.message)) for w in caught]


def _assert_same_objective(obj, betas):
    for beta in betas:
        got, got_warned = _recorded(_evaluate, obj, beta)
        want, want_warned = _recorded(ref_evaluate, obj, beta)
        assert _bits(got) == _bits(want), (obj.family, beta, got, want)
        assert got_warned == want_warned, (obj.family, beta)
        with np.errstate(over="ignore", invalid="ignore"):
            g_inv = obj.family_at(beta)._objective_terms(*obj._fixed)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arrays = obj._kernel.density_and_ratio(g_inv)
        for a, b in zip(arrays, ref_kernel_arrays(obj, beta)):
            assert _bits(a) == _bits(b), (obj.family, beta)


def _absorption_times(preset, count, seed):
    fam = ScalingFamily(preset.family, preset.beta)
    paths = simulate_paths(preset.lam, preset.pi, fam, np.inf, RandomStream(seed), count)
    return paths.end_times


@pytest.mark.parametrize("preset", [GOMPERTZ_STUDY, WEIBULL_STUDY], ids=["gompertz", "weibull"])
def test_preset_objectives_match_reference(preset):
    times = _absorption_times(preset, 1000, 31)
    betas = [1e-5] + [preset.beta * f for f in (0.5, 0.9, 1.0, 1.01, 1.5, 3.0, 5.0, 9.0)]
    # the gompertz generator has a complex pair and the weibull one real
    # eigenvalues: each family is evaluated on both kinds of column
    for model in (GOMPERTZ_STUDY, WEIBULL_STUDY):
        obj = BetaObjective(preset.family, model.pi, model.lam, times)
        assert obj._kernel._eig_ok
        assert any(b for _a, b, _p, _q in obj._kernel._cols) == (model is GOMPERTZ_STUDY)
        _assert_same_objective(obj, betas)


def test_identity_objective_matches_reference():
    times = _absorption_times(WEIBULL_STUDY, 200, 32)
    obj = BetaObjective(IDENTITY, WEIBULL_STUDY.pi, WEIBULL_STUDY.lam, times)
    _assert_same_objective(obj, [0.3, 1.0, 7.0])


@pytest.mark.parametrize("kind,betas", [(GOMPERTZ, (0.05, 0.3, 1.0)), (WEIBULL, (0.7, 2.0))])
def test_expm_route_objective_matches_reference(kind, betas):
    times = np.append(np.random.default_rng(33).uniform(0.2, 4.0, size=12), 7.0)
    obj = BetaObjective(kind, JORDAN_PI, JORDAN_LAM, times)
    assert not obj._kernel._eig_ok
    _assert_same_objective(obj, betas)


def test_overflowing_objective_matches_reference():
    obj = BetaObjective(GOMPERTZ, GOMPERTZ_STUDY.pi, GOMPERTZ_STUDY.lam, np.array([5.0, 100.0]))
    _assert_same_objective(obj, [8.0, 0.1])
    obj = BetaObjective(WEIBULL, WEIBULL_STUDY.pi, WEIBULL_STUDY.lam, np.array([0.5, 1e10]))
    _assert_same_objective(obj, [40.0, 3.0])


@pytest.mark.parametrize("pi,lam", [(GOMPERTZ_STUDY.pi, GOMPERTZ_STUDY.lam),
                                    (JORDAN_PI, JORDAN_LAM)], ids=["eigen", "expm"])
def test_density_and_cdf_match_reference(pi, lam):
    cases = [
        (ScalingFamily(GOMPERTZ, 1.0), np.array([0.5, 5.0, 700.0, 800.0, 1000.0])),
        (ScalingFamily(GOMPERTZ, 1.0), 1000.0),
        (ScalingFamily(GOMPERTZ, 1.0), 2.0),
        (ScalingFamily(GOMPERTZ, 1.0), np.array([800.0, 1000.0])),
        (ScalingFamily(WEIBULL, 40.0), np.array([0.0, 0.5, 1.5, 1e10])),
        (ScalingFamily(WEIBULL, 0.5), np.array([[0.5, 1.0], [2.0, 30.0]])),
        (ScalingFamily(IDENTITY), np.array([0.0, 0.3, 3.0])),
    ]
    for fam, t in cases:
        for fn, ref in ((iph_density, ref_iph_density), (iph_cdf, ref_iph_cdf)):
            got, got_warned = _recorded(fn, pi, lam, fam, t)
            want, want_warned = _recorded(ref, pi, lam, fam, t)
            assert type(got) is type(want)
            if isinstance(want, tuple):  # both raised
                assert got == want
            else:
                assert _bits(got) == _bits(want), (fn.__name__, fam, t)
            assert got_warned == want_warned, (fn.__name__, fam, t)

"""The density kernel and the beta objective against the matrix exponential.

``_AbsorptionKernel`` evaluates ``pi exp(sL) v`` as real eigen columns;
each case here checks the density factor, the ratio numerator, the
survival and the ratio against one ``matrix_exponential`` per time, within
1e-12 relative, and the objective's log-likelihood and score against sums
of those with the family's pointwise h and g_inv and the closed-form
beta-derivatives of ``_derivatives``.  The cases cover a complex
pair (Gompertz preset), real eigenvalues (Weibull preset), two complex
pairs (six states), the constant column alone (one state), the identity
family, and a Coxian with equal rates, which stays on the expm route.
"""

import warnings

import numpy as np
import pytest

from _derivatives import dh_dbeta, int_dh_dbeta
from iphfit import (
    GOMPERTZ,
    IDENTITY,
    WEIBULL,
    BetaObjective,
    InitialDistribution,
    RandomStream,
    ScalingFamily,
    SubIntensityMatrix,
    matrix_exponential,
)
from iphfit.likelihood import _AbsorptionKernel, _evaluate
from iphfit.scaling import _objective_terms
from iphfit.simulate import simulate_paths
from iphfit.studies import GOMPERTZ_STUDY, WEIBULL_STUDY

REL = 1e-12


def _two_cycles():
    """Two three-state cycles, the first feeding the second: eigenvalues
    about -0.117 and -3.117 +- 1.732i, and -0.3 and -1.8 +- 0.866i."""
    lam = np.zeros((6, 6))
    for block, rate, exit_rate in ((0, 2.0, 0.1), (3, 1.0, 0.3)):
        for i in range(3):
            lam[block + i, block + (i + 1) % 3] = rate
            lam[block + i, block + i] = -(rate + exit_rate)
    lam[0, 3] = 0.05
    lam[0, 0] -= 0.05
    pi = np.array([0.3, 0.1, 0.2, 0.15, 0.15, 0.1])
    return InitialDistribution(pi), SubIntensityMatrix(lam)


SIX_PI, SIX_LAM = _two_cycles()
ONE_PI, ONE_LAM = InitialDistribution(np.array([1.0])), SubIntensityMatrix(np.array([[-0.7]]))
COXIAN_PI = InitialDistribution(np.array([0.8, 0.2]))
COXIAN_LAM = SubIntensityMatrix(np.array([[-1.5, 1.5], [0.0, -1.5]]))

MODELS = {
    "gompertz": (GOMPERTZ_STUDY.pi, GOMPERTZ_STUDY.lam, 1),
    "weibull": (WEIBULL_STUDY.pi, WEIBULL_STUDY.lam, 0),
    "six states": (SIX_PI, SIX_LAM, 2),
    "one state": (ONE_PI, ONE_LAM, 0),
}


def oracle(pi, lam, s):
    """pi exp(sL) exit, pi L exp(sL) exit and pi exp(sL) 1 at each s."""
    arr = lam.entries
    exit_rates = -arr.sum(axis=1)
    out = []
    for si in s:
        row = pi.probabilities @ matrix_exponential(arr, si)
        out.append((row @ exit_rates, row @ arr @ exit_rates, row.sum()))
    return np.array(out).T


def _close(got, want):
    assert np.all(np.abs(got - want) <= REL * np.abs(want)), (got, want)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_eigen_columns_match_the_matrix_exponential(name):
    pi, lam, pairs = MODELS[name]
    kern = _AbsorptionKernel(pi, lam)
    assert kern._eig_ok
    assert sum(1 for _a, b, _p, _q in kern._cols if b) == pairs
    assert len(kern._cols) == (lam.n - 1 - pairs)  # one column a pair, none the dominant
    scale = 1.0 / float(-lam.entries.diagonal().max())
    s = np.array([0.0, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0]) * scale
    density, numerator, survival = oracle(pi, lam, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, ratio = kern.density_and_ratio(s)
        _close(a, density)
        _close(kern.density_factor(s), density)
        _close(kern.survival(s), survival)
        _close(ratio * a, numerator)
        _close(ratio, numerator / density)


def test_one_state_is_the_constant_column():
    kern = _AbsorptionKernel(ONE_PI, ONE_LAM)
    assert kern._cols == [] and kern._shift == -0.7
    s = np.array([0.0, 2.0, 1e3])
    a, ratio = kern.density_and_ratio(s)
    _close(a, 0.7 * np.exp(-0.7 * s))
    assert np.all(ratio == -0.7)


def test_equal_rate_coxian_stays_on_the_expm_route():
    kern = _AbsorptionKernel(COXIAN_PI, COXIAN_LAM)
    assert not kern._eig_ok
    s = np.array([0.0, 0.3, 2.0, 7.0])
    density, numerator, survival = oracle(COXIAN_PI, COXIAN_LAM, s)
    a, ratio = kern.density_and_ratio(s)
    _close(a, density)
    _close(kern.survival(s), survival)
    _close(ratio, numerator / density)


@pytest.mark.parametrize("name", ["gompertz", "six states"])
def test_ratio_past_the_phase_overflow_is_the_dominant_eigenvalue(name):
    """Where s times a pair's frequency overflows float64, its column has
    long underflown: the density is 0 and the ratio the slowest decay."""
    pi, lam, _pairs = MODELS[name]
    kern = _AbsorptionKernel(pi, lam)
    s = np.array([1e306, 1.7e308])
    with warnings.catch_warnings(), np.errstate(all="ignore"):  # as _evaluate calls it
        warnings.simplefilter("error")
        a, ratio = kern.density_and_ratio(s)
    assert np.all(a == 0.0)
    slowest = max(np.linalg.eigvals(lam.entries).real)
    _close(ratio, np.full(2, slowest))


def _terms(fam, times):
    return fam.g_inv(times), fam.h(times), dh_dbeta(fam, times), int_dh_dbeta(fam, times)


def _oracle_objective(kind, pi, lam, times, beta):
    fam = ScalingFamily(kind, beta)
    g_inv, h, dh, int_dh = _terms(fam, times)
    density, numerator, _survival = oracle(pi, lam, g_inv)
    return (np.sum(np.log(h)) + np.sum(np.log(density)),
            np.sum(dh / h) + np.sum(int_dh * numerator / density))


@pytest.mark.parametrize("preset", [GOMPERTZ_STUDY, WEIBULL_STUDY], ids=["gompertz", "weibull"])
def test_objective_matches_the_matrix_exponential(preset):
    fam = ScalingFamily(preset.family, preset.beta)
    paths = simulate_paths(preset.lam, preset.pi, fam, np.inf, RandomStream(41), 60)
    times = paths.end_times
    obj = BetaObjective(preset.family, preset.pi, preset.lam, times)
    for beta in (0.5 * preset.beta, preset.beta, 1.5 * preset.beta):
        ell, grad = _evaluate(obj, beta)
        want_ell, want_grad = _oracle_objective(preset.family, preset.pi, preset.lam, times, beta)
        assert abs(ell - want_ell) <= REL * abs(want_ell)
        assert abs(grad - want_grad) <= REL * max(abs(want_grad), 1.0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_identity_objective_matches_the_matrix_exponential(name):
    pi, lam, _pairs = MODELS[name]
    times = np.array([0.05, 0.4, 1.0, 2.5, 6.0])
    obj = BetaObjective(IDENTITY, pi, lam, times)
    ell, grad = _evaluate(obj, 1.0)
    want_ell, _ = _oracle_objective(IDENTITY, pi, lam, times, 1.0)
    assert abs(ell - want_ell) <= REL * abs(want_ell)
    assert grad == 0.0


def test_family_sums_match_the_pointwise_terms():
    """The objective's closed-form sums of log h and dh/dbeta / h, and its
    g_inv and int dh/dbeta, against the pointwise formulas."""
    times = np.array([0.01, 0.3, 1.0, 2.0, 7.5, 40.0])
    log_t = np.log(times)
    for kind, beta in [(GOMPERTZ, 0.1019), (GOMPERTZ, 0.9), (WEIBULL, 0.5), (WEIBULL, 3.0),
                       (IDENTITY, 1.0)]:
        fam = ScalingFamily(kind, beta)
        g_inv, h, dh, int_dh = _terms(fam, times)
        got = _objective_terms(kind, fam.beta, times, log_t, float(times.sum()),
                               float(log_t.sum()))
        _close(got[0], g_inv)
        np.testing.assert_allclose(got[1], int_dh, rtol=1e-12, atol=1e-300)
        assert abs(got[2] - np.log(h).sum()) <= 1e-12 * max(1.0, abs(got[2]))
        assert abs(got[3] - (dh / h).sum()) <= 1e-12 * max(1.0, abs(got[3]))

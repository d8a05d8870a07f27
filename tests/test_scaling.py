import numpy as np
import pytest
from scipy.integrate import quad

from iphfit import GOMPERTZ, IDENTITY, WEIBULL, ScalingFamily, ValidationError

BETAS = (0.05, 0.1019, 1.0, 3.0)


def all_families():
    out = [ScalingFamily(IDENTITY)]
    for b in BETAS:
        out.append(ScalingFamily(GOMPERTZ, b))
        out.append(ScalingFamily(WEIBULL, b))
    return out


def dh_dbeta(fam, t):
    """dh/dbeta at t, as the score reads it from ``_terms``."""
    return fam._terms(np.asarray(t, dtype=float))[2]


def int_dh_dbeta(fam, t):
    """int_0^t dh/dbeta ds, as the score reads it from ``_terms``."""
    return fam._terms(np.asarray(t, dtype=float))[3]


# ---------------------------------------------------------------------------
# construction


def test_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        ScalingFamily("exponential", 1.0)


def test_rejects_nonpositive_beta():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            ScalingFamily(GOMPERTZ, bad)
        with pytest.raises(ValidationError):
            ScalingFamily(WEIBULL, bad)
    ScalingFamily(IDENTITY, 0.0)  # beta ignored


# ---------------------------------------------------------------------------
# pointwise values


def test_h_examples():
    assert ScalingFamily(GOMPERTZ, 0.7).h(0.0) == 1.0
    assert ScalingFamily(WEIBULL, 3.0).h(2.0) == pytest.approx(12.0, rel=1e-15)
    assert ScalingFamily(IDENTITY).h(123.4) == 1.0


def test_weibull_h_domain():
    with pytest.raises(ValidationError):
        ScalingFamily(WEIBULL, 0.5).h(0.0)
    assert ScalingFamily(WEIBULL, 2.0).h(0.0) == 0.0
    assert ScalingFamily(WEIBULL, 1.0).h(0.0) == 1.0


def test_dh_dbeta_examples():
    assert dh_dbeta(ScalingFamily(GOMPERTZ, 0.5), 0.0) == 0.0
    assert dh_dbeta(ScalingFamily(WEIBULL, 3.0), 1.0) == pytest.approx(1.0)
    assert dh_dbeta(ScalingFamily(IDENTITY), 5.0) == 0.0


def test_dh_dbeta_matches_finite_difference():
    eps = 1e-6
    for kind, beta, t in [
        (GOMPERTZ, 0.1019, 2.0),
        (GOMPERTZ, 1.0, 0.3),
        (WEIBULL, 3.0, 2.0),
        (WEIBULL, 0.5, 0.7),
    ]:
        fam = ScalingFamily(kind, beta)
        fd = (
            ScalingFamily(fam.kind, beta + eps).h(t) - ScalingFamily(fam.kind, beta - eps).h(t)
        ) / (2 * eps)
        assert dh_dbeta(fam, t) == pytest.approx(fd, rel=1e-6)


def test_g_inv_examples():
    assert ScalingFamily(WEIBULL, 3.0).g_inv(1.0) == 1.0
    assert ScalingFamily(IDENTITY).g_inv(7.3) == 7.3
    got = ScalingFamily(GOMPERTZ, 0.1019).g_inv(1.0)
    ref, err = quad(lambda s: np.exp(0.1019 * s), 0.0, 1.0, epsabs=1e-13)
    assert abs(got - ref) <= 1e-10
    assert got == pytest.approx(1.0527, abs=1e-4)


def test_g_examples():
    assert ScalingFamily(GOMPERTZ, 2.2).g(0.0) == 0.0
    assert ScalingFamily(WEIBULL, 3.0).g(8.0) == pytest.approx(2.0, rel=1e-15)


def test_gompertz_round_trip_study_points():
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    for t in (0.1, 1.0, 10.0, 60.0):
        assert abs(fam.g(fam.g_inv(t)) - t) <= 1e-10


# ---------------------------------------------------------------------------
# properties


@pytest.mark.properties
def test_round_trip_log_grid():
    grid = np.logspace(-6, 3, 40)
    for fam in all_families():
        s = np.asarray(fam.g_inv(grid))
        finite = np.isfinite(s)
        # float64 cannot represent exp(beta*t) for large beta*t; those
        # points overflow to +inf by contract and are excluded
        assert np.all(np.isinf(s[~finite]))
        back = fam.g(s[finite])
        err = np.abs(back - grid[finite]) / np.maximum(1.0, grid[finite])
        assert err.max() <= 1e-10


@pytest.mark.properties
def test_g_inv_matches_quadrature():
    grid = [1e-4, 0.1, 1.0, 7.5, 30.0]
    for fam in all_families():
        for t in grid:
            closed = fam.g_inv(t)
            if not np.isfinite(closed):
                continue
            ref, _ = quad(fam.h, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
            assert abs(closed - ref) <= 1e-8 * max(1.0, closed)


def test_g_inv_derivative_is_h():
    eps = 1e-6
    for fam in all_families():
        for t in (0.5, 1.0, 4.0):
            fd = (fam.g_inv(t + eps) - fam.g_inv(t - eps)) / (2 * eps)
            assert fd == pytest.approx(fam.h(t), rel=1e-6)


def test_g_inv_strictly_increasing():
    grid = np.linspace(0.01, 20.0, 300)
    for fam in all_families():
        vals = np.asarray(fam.g_inv(grid))
        vals = vals[np.isfinite(vals)]
        assert np.all(np.diff(vals) > 0.0)


def test_int_dh_dbeta_matches_quadrature():
    # integrand is singular (integrably) at 0 for weibull beta < 1, so the
    # quadrature leg starts just above 0 and is restricted to beta >= 1
    for kind, beta in [(GOMPERTZ, 0.1019), (GOMPERTZ, 1.0), (WEIBULL, 3.0)]:
        fam = ScalingFamily(kind, beta)
        for t in (0.2, 1.0, 5.0):
            ref, _ = quad(
                lambda s: dh_dbeta(fam, s), 1e-12, t, epsabs=1e-12, epsrel=1e-12, limit=200
            )
            assert int_dh_dbeta(fam, t) == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_int_dh_dbeta_matches_beta_derivative_of_g_inv():
    # d/dbeta g_inv(t) = int_0^t dh/dbeta ds; central finite difference
    eps = 1e-6
    for kind, beta in [
        (GOMPERTZ, 0.1019),
        (GOMPERTZ, 1.0),
        (WEIBULL, 3.0),
        (WEIBULL, 0.5),
    ]:
        fam = ScalingFamily(kind, beta)
        for t in (0.2, 1.0, 5.0):
            fd = (
                ScalingFamily(fam.kind, beta + eps).g_inv(t)
                - ScalingFamily(fam.kind, beta - eps).g_inv(t)
            ) / (2 * eps)
            assert int_dh_dbeta(fam, t) == pytest.approx(fd, rel=5e-6, abs=1e-8)


def test_int_dh_dbeta_zero_at_origin():
    assert int_dh_dbeta(ScalingFamily(WEIBULL, 3.0), 0.0) == 0.0
    assert int_dh_dbeta(ScalingFamily(WEIBULL, 0.5), 0.0) == 0.0
    assert int_dh_dbeta(ScalingFamily(GOMPERTZ, 0.3), 0.0) == 0.0


def test_identity_derivatives_vanish():
    fam = ScalingFamily(IDENTITY)
    t = np.array([0.0, 1.0, 9.0])
    assert np.all(dh_dbeta(fam, t) == 0.0)
    assert np.all(int_dh_dbeta(fam, t) == 0.0)
    np.testing.assert_array_equal(fam.g(t), t)
    np.testing.assert_array_equal(fam.g_inv(t), t)


def test_rejects_negative_and_non_finite_times():
    fam = ScalingFamily(GOMPERTZ, 1.0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            fam.h(bad)
        with pytest.raises(ValidationError):
            fam.g_inv(bad)
    with pytest.raises(ValidationError):
        fam.g(-2.0)

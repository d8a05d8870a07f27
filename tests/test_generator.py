import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import _cli
from iphfit import (
    InitialDistribution,
    NumericalError,
    SubIntensityMatrix,
    ValidationError,
    matrix_exponential,
    validate_generator,
)

from conftest import CLINIC_LAM, GOMPERTZ_LAM, WEIBULL_LAM

JORDAN_LAM = np.array([[-1.0, 1.0], [0.0, -1.0]])


def taylor_expm(a: np.ndarray, t: float) -> np.ndarray:
    """Independent oracle: scaled Taylor summation to machine convergence."""
    a = np.asarray(a, dtype=float) * t
    norm = np.abs(a).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    b = a / (2**squarings)
    term = np.eye(a.shape[0])
    total = term.copy()
    for k in range(1, 200):
        term = term @ b / k
        total += term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def random_generator(n: int, seed: int) -> SubIntensityMatrix:
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.05, 1.0, size=(n, n))
    np.fill_diagonal(off, 0.0)
    exit_r = rng.uniform(0.01, 0.5, size=n)
    np.fill_diagonal(off, -(off.sum(axis=1) + exit_r))
    return SubIntensityMatrix(off)


# ---------------------------------------------------------------------------
# construction and validation


def test_construction_rejects_non_square():
    with pytest.raises(ValidationError):
        SubIntensityMatrix(np.zeros((2, 3)))


def test_construction_rejects_non_finite():
    with pytest.raises(ValidationError):
        SubIntensityMatrix(np.array([[np.nan]]))
    with pytest.raises(ValidationError):
        SubIntensityMatrix(np.array([[-np.inf]]))


@pytest.mark.properties
def test_validate_reference_matrix_passes(weibull_lam):
    report = validate_generator(weibull_lam)
    assert report.ok
    assert report.violations == ()


@pytest.mark.properties
def test_validate_zero_row_warns_absorbing_in_disguise():
    report = validate_generator(SubIntensityMatrix(np.array([[0.0]])))
    assert report.ok
    assert any("absorbing-in-disguise" in w for w in report.warnings)
    assert any("state 1" in w for w in report.warnings)


@pytest.mark.properties
def test_validate_negative_offdiagonal_fails():
    report = validate_generator(np.array([[-1.0, -0.5], [0.2, -0.2]]))
    assert not report.ok
    assert any("(1,2)" in v or "(1, 2)" in v for v in report.violations)


@pytest.mark.properties
def test_validate_positive_diagonal_fails():
    report = validate_generator(np.array([[0.5, 0.0], [0.1, -0.2]]))
    assert not report.ok


@pytest.mark.properties
def test_validate_positive_row_sum_fails():
    report = validate_generator(np.array([[-0.1, 0.5], [0.0, -1.0]]))
    assert not report.ok
    assert any("row 1" in v for v in report.violations)


def test_initial_distribution_invariants():
    pi = InitialDistribution(np.array([0.25, 0.75]))
    assert pi.n == 2
    with pytest.raises(ValidationError):
        InitialDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        InitialDistribution(np.array([-0.1, 1.1]))


# ---------------------------------------------------------------------------
# exit rates


def test_exit_rates_two_state(weibull_lam):
    np.testing.assert_allclose(weibull_lam.exit_rates(), [2.9, 0.09], atol=1e-15)


def test_exit_rates_scalar():
    np.testing.assert_allclose(
        SubIntensityMatrix(np.array([[-1.0]])).exit_rates(), [1.0]
    )


def test_exit_rates_clinic_matrix(clinic_lam):
    # published entries are rounded to 4 decimals, hence the loose atol
    np.testing.assert_allclose(
        clinic_lam.exit_rates(), [0.0923, 0.0635, 0.1083], atol=1.5e-4
    )


def test_exit_rates_requires_valid_generator():
    with pytest.raises(ValidationError):
        SubIntensityMatrix(np.array([[-1.0, -0.5], [0.2, -0.2]])).exit_rates()


def test_invalid_matrix_raises_the_same_error_on_every_call():
    m = SubIntensityMatrix(np.array([[-1.0, -0.5], [0.2, 0.3]]))
    want = ("invalid sub-intensity matrix: negative off-diagonal rate at (1,2); "
            "positive diagonal entry at (2,2); row 2 sums to 0.5 > 0")
    for call in (m.exit_rates, m.require_valid) * 3:
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == want


def test_a_matrix_is_validated_once(monkeypatch, weibull_lam):
    """The entries are read-only: the structural checks run on the first
    call that needs them, and later calls reuse their report."""
    import iphfit.generator as generator

    checks = []
    validate = generator.validate_generator
    monkeypatch.setattr(generator, "validate_generator", lambda m: checks.append(m) or validate(m))
    m = SubIntensityMatrix(weibull_lam.entries)
    rates = [m.exit_rates().tolist() for _ in range(3)]
    m.require_valid()
    assert checks == [m]
    assert rates == [(-weibull_lam.entries.sum(axis=1)).tolist()] * 3


# ---------------------------------------------------------------------------
# matrix exponential


def test_expm_at_zero_is_identity(gompertz_lam):
    np.testing.assert_allclose(
        matrix_exponential(gompertz_lam, 0.0), np.eye(3), atol=1e-15
    )


def test_expm_diagonal_case():
    got = matrix_exponential(np.diag([-1.0, -2.0]), 1.0)
    np.testing.assert_allclose(got, np.diag([np.exp(-1), np.exp(-2)]), rtol=1e-14)


@pytest.mark.properties
def test_expm_matches_taylor_oracle():
    cases = [
        (WEIBULL_LAM, 1.0),
        (GOMPERTZ_LAM, 5.0),
        (CLINIC_LAM, 2.5),
        (random_generator(5, seed=42).entries, 3.0),
    ]
    for arr, t in cases:
        got = matrix_exponential(np.asarray(arr), t)
        ref = taylor_expm(np.asarray(arr), t)
        assert np.abs(got - ref).max() <= 1e-9


@pytest.mark.properties
def test_expm_semigroup():
    mats = [
        SubIntensityMatrix(GOMPERTZ_LAM),
        SubIntensityMatrix(WEIBULL_LAM),
        SubIntensityMatrix(CLINIC_LAM),
        random_generator(4, seed=7),
        random_generator(5, seed=11),
    ]
    for m in mats:
        for s in (0.1, 1.0, 5.0):
            for t in (0.1, 1.0, 5.0):
                lhs = matrix_exponential(m, s + t)
                rhs = matrix_exponential(m, s) @ matrix_exponential(m, t)
                assert np.abs(lhs - rhs).max() <= 1e-9


@pytest.mark.properties
def test_expm_sub_stochastic():
    mats = [
        SubIntensityMatrix(GOMPERTZ_LAM),
        SubIntensityMatrix(WEIBULL_LAM),
        random_generator(5, seed=3),
    ]
    for m in mats:
        for t in (0.0, 0.01, 0.5, 1.0, 10.0, 100.0):
            e = matrix_exponential(m, t)
            assert e.min() >= -1e-12
            assert e.max() <= 1.0 + 1e-12
            assert e.sum(axis=1).max() <= 1.0 + 1e-12


def test_survival_non_increasing(gompertz_lam, gompertz_pi):
    grid = np.linspace(0.0, 50.0, 200)
    ones = np.ones(3)
    vals = [
        gompertz_pi.probabilities @ matrix_exponential(gompertz_lam, t) @ ones
        for t in grid
    ]
    assert np.all(np.diff(vals) <= 1e-12)


def test_expm_rejects_bad_time(gompertz_lam):
    with pytest.raises(ValidationError):
        matrix_exponential(gompertz_lam, -0.5)
    with pytest.raises(ValidationError):
        matrix_exponential(gompertz_lam, np.nan)


def test_expm_rejects_non_finite_matrix():
    with pytest.raises((ValidationError, NumericalError)):
        matrix_exponential(np.array([[np.inf]]), 1.0)


def test_expm_is_scipys_bit_for_bit():
    # the density kernels' expm route evaluates through this function
    for arr in (GOMPERTZ_LAM, WEIBULL_LAM, JORDAN_LAM):
        for t in (0.0, 0.1, 1.0, 7.5, 430.0):
            assert np.array_equal(matrix_exponential(arr, t), scipy.linalg.expm(t * arr))


# import, the command line's help, a tiny study and a CDF: every density
# kernel on these takes the eigendecomposition route
NO_SCIPY_CODE = """
import sys, warnings
import iphfit
from iphfit import cli
try:
    cli.main(["--help"])
except SystemExit:
    pass
warnings.simplefilter("ignore")
iphfit.run_study(iphfit.WEIBULL_STUDY, 0, paths=50)
g = iphfit.GOMPERTZ_STUDY
iphfit.iph_cdf(g.pi, g.lam, iphfit.ScalingFamily(g.family, g.beta), [1.0, 30.0])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_path_imports_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CODE],
        capture_output=True, text=True, env=_cli.env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"

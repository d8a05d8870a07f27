import numpy as np
import pytest

from iphfit import (
    GOMPERTZ,
    KsResult,
    RandomStream,
    SampleSet,
    ScalingFamily,
    ValidationError,
    ecdf,
    ks_two_sample,
)
from iphfit.gof import _kolmogorov_sf
from iphfit.studies import fitted_absorption_sample


def test_ecdf_pointwise_examples():
    s = SampleSet(np.array([1.0, 2.0, 3.0]))
    assert ecdf(s, 2.0) == pytest.approx(2 / 3)
    assert ecdf(s, 0.5) == 0.0
    assert ecdf(s, 3.0) == 1.0
    assert ecdf(s, 99.0) == 1.0
    dup = SampleSet(np.array([1.0, 1.0, 2.0]))
    assert ecdf(dup, 1.0) == pytest.approx(2 / 3)


def test_ecdf_vectorized_and_right_continuous():
    s = SampleSet(np.array([1.0, 2.0]))
    grid = np.array([0.0, 1.0 - 1e-12, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(ecdf(s, grid), [0.0, 0.0, 0.5, 0.5, 1.0])


def test_sample_set_validation():
    with pytest.raises(ValidationError):
        SampleSet(np.array([]))
    with pytest.raises(ValidationError):
        SampleSet(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        SampleSet(np.array([[1.0], [2.0]]))


def test_ks_identical_samples():
    s = np.array([0.3, 1.2, 2.0, 5.5])
    res = ks_two_sample(s, s.copy())
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert (res.n_a, res.n_b) == (4, 4)


def test_ks_disjoint_samples():
    res = ks_two_sample(np.zeros(50), np.ones(50))
    assert res.statistic == 1.0
    assert res.p_value < 1e-10


def _every_scaled_d(n_a, n_b):
    """sqrt(n_a n_b / (n_a + n_b)) * D for every |i/n_a - j/n_b| that
    ks_two_sample can meet, computed as it computes them."""
    d = np.abs(np.arange(n_a + 1)[:, None] / n_a - np.arange(n_b + 1)[None, :] / n_b)
    return np.sqrt(n_a * n_b / (n_a + n_b)) * np.unique(d)


def test_kolmogorov_tail_is_scipys_bit_for_bit():
    from scipy.special import kolmogorov

    x = np.concatenate(
        (
            np.linspace(0.0, 6.0, 100_001),
            np.random.default_rng(5).uniform(0.0, 6.0, 20_000),
            np.linspace(0.0406, 0.0408, 4_001),  # scipy's underflowing-u branch
            np.linspace(0.8195, 0.8205, 4_001),  # the cutover between the series
            [0.0, np.nextafter(0.82, 1.0), np.nan],
            _every_scaled_d(1000, 1000),
            _every_scaled_d(400, 97),
        )
    )
    got = np.array([_kolmogorov_sf(float(v)) for v in x])
    want = kolmogorov(x)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"{bad.size} differ, first at x={x[bad[0]]!r}"


def test_ks_handles_unequal_sizes():
    rng = np.random.default_rng(91)
    res = ks_two_sample(rng.exponential(size=400), rng.exponential(size=97))
    assert 0.0 <= res.statistic <= 1.0
    assert 0.0 <= res.p_value <= 1.0
    assert (res.n_a, res.n_b) == (400, 97)


@pytest.mark.properties
def test_ks_symmetric_in_arguments():
    rng = np.random.default_rng(92)
    for _ in range(20):
        a = rng.exponential(size=int(rng.integers(5, 200)))
        b = rng.gamma(2.0, size=int(rng.integers(5, 200)))
        ab = ks_two_sample(a, b)
        ba = ks_two_sample(b, a)
        assert ab.statistic == ba.statistic
        assert ab.p_value == ba.p_value


def test_ks_statistic_invariant_under_monotone_map():
    # D depends only on ranks, so a strictly increasing map leaves it fixed
    rng = np.random.default_rng(93)
    a = rng.exponential(size=150)
    b = rng.exponential(1.4, size=130)
    d_raw = ks_two_sample(a, b).statistic
    d_cubed = ks_two_sample(a**3, b**3).statistic
    assert d_raw == d_cubed


def test_ks_p_value_decreases_with_shift():
    rng = np.random.default_rng(94)
    base = rng.exponential(size=300)
    other = rng.exponential(size=300)
    previous = None
    for shift in (0.0, 0.3, 0.8, 2.0):
        p = ks_two_sample(base, other + shift).p_value
        if previous is not None:
            assert p <= previous + 1e-12
        previous = p


def test_ks_ties_do_not_break_statistic():
    a = np.array([1.0, 1.0, 1.0, 2.0])
    b = np.array([1.0, 2.0, 2.0, 2.0])
    res = ks_two_sample(a, b)
    # F_a(1) = 3/4, F_b(1) = 1/4 is the exact supremum
    assert res.statistic == pytest.approx(0.5)


@pytest.mark.properties
def test_ks_null_calibration():
    # under the null the test should reject at roughly its nominal level
    rng = np.random.default_rng(95)
    rejections = sum(
        ks_two_sample(rng.exponential(size=10_000), rng.exponential(size=10_000)).p_value
        < 0.05
        for _ in range(200)
    )
    assert 1 <= rejections <= 23  # binomial(200, 0.05): central 99.9% range


def test_ks_accepts_true_model_absorption_times(gompertz_pi, gompertz_lam):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    root = RandomStream(96)

    def draw(key, count):  # path k draws from root.substream(key, k)
        return fitted_absorption_sample(gompertz_pi, gompertz_lam, fam, count, root, (key,))

    accepted = sum(
        ks_two_sample(draw(2 * r, 300), draw(2 * r + 1, 300)).p_value > 0.05
        for r in range(50)
    )
    assert accepted >= 45


def test_ks_result_is_plain_record():
    res = KsResult(statistic=0.1, p_value=0.5, n_a=10, n_b=20)
    assert res.statistic == 0.1
    assert res.p_value == 0.5

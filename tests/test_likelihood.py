import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from iphfit import (
    BetaObjective,
    ContinuousPath,
    GOMPERTZ,
    HOMOGENEOUS,
    IDENTITY,
    INHOMOGENEOUS,
    InitialDistribution,
    NonConvergenceError,
    NumericalError,
    RandomStream,
    ScalingFamily,
    StarvedStateError,
    SubIntensityMatrix,
    SufficientStatistics,
    ValidationError,
    WEIBULL,
    beta_gradient,
    beta_loglik,
    gd_solve,
    iph_cdf,
    iph_density,
    matrix_exponential,
    mle_generator,
    validate_generator,
)
from iphfit.likelihood import _AbsorptionKernel, accumulate_statistics, flat_statistics
from iphfit.simulate import bridge_sample, simulate_paths
from iphfit.studies import GOMPERTZ_STUDY, WEIBULL_STUDY, simulate_cohort

ONE_STATE = SubIntensityMatrix(np.array([[-1.0]]))
POINT_MASS = InitialDistribution(np.array([1.0]))


def _path(times, states, end_time, n=2, timeline=HOMOGENEOUS):
    return ContinuousPath(
        n=n,
        times=np.asarray(times, dtype=float),
        states=np.asarray(states),
        end_time=end_time,
        timeline=timeline,
    )


# ---------------------------------------------------------------------------
# sufficient statistics


def test_accumulate_single_absorbed_path():
    stats = accumulate_statistics([_path([0.0, 0.4, 1.0], [1, 2, 3], 1.0)])
    assert stats.start_counts.tolist() == [1, 0]
    assert stats.jump_counts.tolist() == [[0, 1], [0, 0]]
    assert stats.absorption_counts.tolist() == [0, 1]
    np.testing.assert_allclose(stats.occupation, [0.4, 0.6])


def test_accumulate_empty_collection():
    stats = accumulate_statistics([], n=3)
    assert stats.n == 3
    assert stats.start_counts.sum() == 0
    assert stats.occupation.sum() == 0.0


def test_accumulate_censored_partial_holding():
    stats = accumulate_statistics([_path([0.0, 0.4], [1, 2], 1.0)])
    assert stats.absorption_counts.tolist() == [0, 0]
    np.testing.assert_allclose(stats.occupation, [0.4, 0.6])


def test_accumulate_rejects_segments():
    segment = bridge_sample(ONE_STATE, 1.0, 1, 1.5, 2, RandomStream(1))
    with pytest.raises(ValidationError, match="unsupported path object tuple"):
        accumulate_statistics([segment], n=1)


def test_accumulate_rejects_inhomogeneous_timeline():
    with pytest.raises(ValidationError):
        accumulate_statistics(
            [_path([0.0, 0.4], [1, 2], 1.0, timeline=INHOMOGENEOUS)]
        )


def test_statistics_validation():
    with pytest.raises(ValidationError):
        SufficientStatistics(
            np.array([1]), np.array([[1]]), np.array([0]), np.array([1.0])
        )  # nonzero jump diagonal
    with pytest.raises(ValidationError):
        SufficientStatistics(
            np.array([-1]), np.array([[0]]), np.array([0]), np.array([1.0])
        )


# ---------------------------------------------------------------------------
# complete-data MLEs


def test_mle_ratio_example():
    stats = SufficientStatistics(
        np.array([2, 0]),
        np.array([[0, 3], [0, 0]]),
        np.array([0, 2]),
        np.array([6.0, 2.0]),
    )
    pi_hat, lam_hat = mle_generator(stats, 2)
    assert lam_hat.entries[0, 1] == pytest.approx(0.5)
    assert lam_hat.entries[0, 0] == pytest.approx(-0.5)
    assert lam_hat.entries[1, 1] == pytest.approx(-1.0)
    assert validate_generator(lam_hat).ok


def test_mle_pi_counting():
    stats = SufficientStatistics(
        np.array([2, 2]),
        np.array([[0, 1], [1, 0]]),
        np.array([1, 1]),
        np.array([3.0, 4.0]),
    )
    pi_hat, _ = mle_generator(stats, 4)
    np.testing.assert_allclose(pi_hat.probabilities, [0.5, 0.5])


def test_mle_starved_state():
    stats = SufficientStatistics(
        np.array([2, 0]),
        np.array([[0, 0], [0, 0]]),
        np.array([2, 0]),
        np.array([5.0, 0.0]),
    )
    with pytest.raises(StarvedStateError) as exc:
        mle_generator(stats, 2)
    assert exc.value.state == 2


def test_mle_simulation_consistency(weibull_lam, weibull_pi):
    # the identity family keeps the homogeneous epochs; path k draws from
    # RandomStream(62).substream(k)
    c = simulate_cohort(
        weibull_pi, weibull_lam, ScalingFamily("identity"), np.inf, 100_000, RandomStream(62),
        key_prefix=(),
    )
    stats = flat_statistics(c.times, c.states, c.bounds, c.end_times, c.n)
    _, lam_hat = mle_generator(stats, len(c))
    # MC standard error of each rate: sqrt(count)/occupation
    for x in range(2):
        for y in range(2):
            if x == y:
                continue
            se = max(np.sqrt(stats.jump_counts[x, y]), 1.0) / stats.occupation[x]
            assert abs(lam_hat.entries[x, y] - weibull_lam.entries[x, y]) <= 3 * se


def complete_data_loglik(stats, lam: np.ndarray) -> float:
    """Log-likelihood of the jump/holding part given complete data."""
    n = stats.n
    exits = -lam.sum(axis=1)
    ll = float(np.sum(stats.occupation * np.diag(lam)))
    for x in range(n):
        for y in range(n):
            if x != y and stats.jump_counts[x, y] > 0:
                ll += stats.jump_counts[x, y] * np.log(lam[x, y])
        if stats.absorption_counts[x] > 0:
            ll += stats.absorption_counts[x] * np.log(exits[x])
    return ll


@pytest.mark.properties
def test_mle_perturbation_maximality():
    rng = np.random.default_rng(63)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        jumps = rng.poisson(8.0, size=(n, n))
        np.fill_diagonal(jumps, 0)
        absorb = rng.poisson(5.0, size=n) + 1
        occ = rng.gamma(4.0, 2.0, size=n) + 0.5
        starts = rng.multinomial(20, np.ones(n) / n)
        stats = SufficientStatistics(starts, jumps, absorb, occ)
        _, lam_hat = mle_generator(stats, 20)
        base = complete_data_loglik(stats, lam_hat.entries)
        for x in range(n):
            for y in range(n):
                if x == y or stats.jump_counts[x, y] == 0:
                    continue
                for factor in (0.9, 1.1):
                    pert = lam_hat.entries.copy()
                    pert[x, y] *= factor
                    pert[x, x] -= pert[x, y] - lam_hat.entries[x, y]
                    assert complete_data_loglik(stats, pert) < base


# ---------------------------------------------------------------------------
# density and CDF


def test_density_exponential_special_case():
    fam = ScalingFamily(IDENTITY)
    t = np.linspace(0.0, 5.0, 30)
    np.testing.assert_allclose(
        iph_density(POINT_MASS, ONE_STATE, fam, t), np.exp(-t), rtol=1e-12
    )
    assert iph_density(POINT_MASS, ONE_STATE, fam, 0.0) == pytest.approx(1.0)


def test_density_scalar_weibull_closed_form():
    fam = ScalingFamily(WEIBULL, 3.0)
    t = np.linspace(0.05, 2.5, 40)
    np.testing.assert_allclose(
        iph_density(POINT_MASS, ONE_STATE, fam, t),
        3 * t**2 * np.exp(-(t**3)),
        rtol=1e-12,
    )
    assert iph_density(POINT_MASS, ONE_STATE, fam, 1.0) == pytest.approx(
        3 * np.exp(-1.0)
    )


def test_density_normalization(weibull_lam, weibull_pi):
    fam = ScalingFamily(WEIBULL, 3.0)
    total, _ = quad(
        lambda t: iph_density(weibull_pi, weibull_lam, fam, t),
        0.0,
        np.inf,
        limit=300,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_density_normalization_gompertz(gompertz_lam, gompertz_pi):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    total, _ = quad(
        lambda t: iph_density(gompertz_pi, gompertz_lam, fam, t),
        0.0,
        np.inf,
        limit=300,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_cdf_basics():
    fam = ScalingFamily(IDENTITY)
    assert iph_cdf(POINT_MASS, ONE_STATE, fam, 0.0) == 0.0
    assert iph_cdf(POINT_MASS, ONE_STATE, fam, 1.0) == pytest.approx(1 - np.exp(-1))


def test_cdf_derivative_matches_density(gompertz_lam, gompertz_pi):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    h = 1e-5
    for t in np.linspace(1.0, 50.0, 25):
        fd = (
            iph_cdf(gompertz_pi, gompertz_lam, fam, t + h)
            - iph_cdf(gompertz_pi, gompertz_lam, fam, t - h)
        ) / (2 * h)
        assert abs(fd - iph_density(gompertz_pi, gompertz_lam, fam, t)) <= 1e-6


def test_cdf_monotone_density_nonnegative(gompertz_lam, gompertz_pi):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    grid = np.linspace(0.0, 120.0, 400)
    cdf = iph_cdf(gompertz_pi, gompertz_lam, fam, grid)
    den = iph_density(gompertz_pi, gompertz_lam, fam, grid)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf.max() <= 1.0
    assert np.all(den >= 0.0)


def test_density_overflowing_transform_yields_zero(gompertz_lam, gompertz_pi):
    fam = ScalingFamily(GOMPERTZ, 1.0)
    # beta*t = 1000 overflows the transform; density has long underflown
    assert iph_density(gompertz_pi, gompertz_lam, fam, 1000.0) == 0.0
    assert iph_cdf(gompertz_pi, gompertz_lam, fam, 1000.0) == 1.0


# ---------------------------------------------------------------------------
# beta objective


def _gompertz_times(count, seed, gompertz_lam, gompertz_pi, beta=0.1019):
    fam = ScalingFamily(GOMPERTZ, beta)
    return simulate_paths(gompertz_lam, gompertz_pi, fam, np.inf, RandomStream(seed), count).end_times


def test_loglik_identity_single_observation():
    obj = BetaObjective(IDENTITY, POINT_MASS, ONE_STATE, np.array([2.3]))
    for beta in (0.1, 1.0, 7.0):
        assert beta_loglik(obj, beta) == pytest.approx(-2.3, rel=1e-12)


def test_loglik_is_sum_of_log_densities(gompertz_lam, gompertz_pi):
    rng = np.random.default_rng(71)
    times = rng.uniform(0.5, 40.0, size=20)
    obj = BetaObjective(GOMPERTZ, gompertz_pi, gompertz_lam, times)
    for beta in (0.05, 0.1019, 0.2):
        fam = ScalingFamily(GOMPERTZ, beta)
        ref = np.sum(np.log(iph_density(gompertz_pi, gompertz_lam, fam, times)))
        assert abs(beta_loglik(obj, beta) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_loglik_grid_scan_peaks_near_truth(gompertz_lam, gompertz_pi):
    times = _gompertz_times(10_000, 72, gompertz_lam, gompertz_pi)
    obj = BetaObjective(GOMPERTZ, gompertz_pi, gompertz_lam, times)
    grid = np.linspace(0.05, 0.2, 31)
    with warnings.catch_warnings():
        # the scan deliberately sweeps into underflow territory at the top end
        warnings.simplefilter("ignore", RuntimeWarning)
        vals = [beta_loglik(obj, b) for b in grid]
    best = grid[int(np.argmax(vals))]
    assert abs(best - 0.1019) <= 0.02


def test_loglik_underflow_sentinel(gompertz_lam, gompertz_pi):
    obj = BetaObjective(
        GOMPERTZ, gompertz_pi, gompertz_lam, np.array([30.0, 45.0])
    )
    with pytest.warns(RuntimeWarning, match="underflow"):
        val = beta_loglik(obj, 1.0)
    assert val == -np.inf


def test_overflowing_transform_underflows_the_objective(gompertz_lam, gompertz_pi):
    # beta * t = 800 overflows g_inv(100): the density there is 0 and the
    # ratio nan, as in iph_density, not an input error
    obj = BetaObjective(GOMPERTZ, gompertz_pi, gompertz_lam, np.array([5.0, 100.0]))
    with pytest.warns(RuntimeWarning, match="^density underflow at observation 0"):
        assert beta_loglik(obj, 8.0) == -np.inf
    with pytest.warns(RuntimeWarning, match=r"^score underflow at observation 1 \(t=100\)$"):
        assert np.isnan(beta_gradient(obj, 8.0))
    with pytest.warns(RuntimeWarning, match="underflow"):
        with pytest.raises(NumericalError, match="^non-finite gradient at beta=8$"):
            gd_solve(obj, beta0=8.0, eta=1e-6, e_ell=0.01)


def test_objective_validation(gompertz_lam, gompertz_pi):
    for bad in ([], [0.0], [-1.0], [np.inf]):
        with pytest.raises(ValidationError):
            BetaObjective(GOMPERTZ, gompertz_pi, gompertz_lam, np.asarray(bad, dtype=float))


def test_gradient_identity_is_zero():
    obj = BetaObjective(
        IDENTITY, POINT_MASS, ONE_STATE, np.array([0.5, 1.0, 4.0])
    )
    assert beta_gradient(obj, 1.0) == 0.0


@pytest.mark.properties
def test_gradient_matches_finite_differences(gompertz_lam, gompertz_pi, weibull_lam, weibull_pi):
    eps = 1e-6
    rng = np.random.default_rng(73)
    times = rng.uniform(0.1, 2.0, size=15)
    cases = [
        (GOMPERTZ, gompertz_pi, gompertz_lam),
        (WEIBULL, weibull_pi, weibull_lam),
    ]
    for kind, pi, lam in cases:
        obj = BetaObjective(kind, pi, lam, times)
        for beta in (0.05, 0.1019, 0.5, 3.0):
            fd = (beta_loglik(obj, beta + eps) - beta_loglik(obj, beta - eps)) / (
                2 * eps
            )
            grad = beta_gradient(obj, beta)
            assert abs(grad - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.properties
def test_gompertz_gradient_dual_formula(gompertz_lam, gompertz_pi):
    # independent route: closed-form accumulated derivative and the matrix
    # exponential evaluated directly, no eigendecomposition shortcut
    rng = np.random.default_rng(74)
    lam_arr = gompertz_lam.entries
    exit_vec = gompertz_lam.exit_rates()
    p = gompertz_pi.probabilities
    times = rng.uniform(0.1, 5.0, size=12)
    obj = BetaObjective(GOMPERTZ, gompertz_pi, gompertz_lam, times)
    for beta in (0.08, 0.15, 0.3):
        ref = 0.0
        for t in times:
            s = np.expm1(beta * t) / beta
            e = matrix_exponential(lam_arr, s)
            int_dh = t * np.exp(beta * t) / beta - np.expm1(beta * t) / beta**2
            ref += t + int_dh * (p @ lam_arr @ e @ exit_vec) / (p @ e @ exit_vec)
        got = beta_gradient(obj, beta)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


# the eigendecomposition of a Jordan block is untrustworthy, so the
# objective evaluates through one matrix exponential per point
JORDAN_PI = InitialDistribution(np.array([0.3, 0.7]))
JORDAN_LAM = SubIntensityMatrix(np.array([[-1.0, 1.0], [0.0, -1.0]]))


@pytest.mark.parametrize("kind,betas", [(GOMPERTZ, (0.05, 0.3)), (WEIBULL, (0.7, 2.0))])
def test_expm_route_loglik_and_gradient(kind, betas):
    times = np.random.default_rng(77).uniform(0.2, 4.0, size=12)
    obj = BetaObjective(kind, JORDAN_PI, JORDAN_LAM, times)
    assert obj._kernel._eig_ok is False
    eps = 1e-6
    for beta in betas:
        fam = ScalingFamily(kind, beta)
        ref = np.sum(np.log(iph_density(JORDAN_PI, JORDAN_LAM, fam, times)))
        assert beta_loglik(obj, beta) == pytest.approx(ref, rel=1e-12)
        fd = (beta_loglik(obj, beta + eps) - beta_loglik(obj, beta - eps)) / (2 * eps)
        assert abs(beta_gradient(obj, beta) - fd) <= 1e-5 * max(1.0, abs(fd))


def _expm_probe(kern: _AbsorptionKernel) -> bool:
    """The eigen probe decided against four scipy matrix exponentials:
    the decision the uniformization reference must reproduce."""
    lam, pi, ex, ones = kern._arr, kern._pi, kern._exit, kern._ones
    rate = max(float(-lam.diagonal().min()), 1e-12)
    probes = np.array([0.0, 0.1, 1.0, 5.0]) / rate
    got = np.column_stack(
        [kern._eig_eval(c, probes) for c in (kern._c_exit, kern._c_rate, kern._c_one)]
    )
    ref = np.array(
        [[pi @ e @ ex, pi @ lam @ e @ ex, pi @ e @ ones]
         for e in (scipy.linalg.expm(s * lam) for s in probes)]
    )
    return not np.any(np.abs(got - ref) > 1e-11 * np.maximum(np.abs(ref), 1e-3))


def _probe_cases(count, seed):
    """Seeded sub-intensity matrices, n = 2-5, scaled by 1e-3 to 1e2, in
    four kinds by index: general, upper triangular, a constant diagonal,
    and triangular with near-repeated eigenvalues."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 6))
        off = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        np.fill_diagonal(off, 0.0)
        if i % 4 in (1, 3):
            off = np.triu(off, 1)
        if i % 4 in (0, 1):
            diag = -(off.sum(axis=1) + rng.uniform(size=n) * (rng.uniform(size=n) < 0.6))
        else:
            diag = np.full(n, -(off.sum(axis=1).max() + rng.uniform()))
            if i % 4 == 3:
                diag *= 1.0 + 10.0 ** rng.uniform(-12, -4, n) * rng.uniform(size=n)
        lam = (off + np.diag(diag)) * 10.0 ** rng.uniform(-3, 2)
        yield InitialDistribution(rng.dirichlet(np.ones(n))), SubIntensityMatrix(lam)


def test_eigen_probe_decides_as_the_expm_reference():
    decided = {True: 0, False: 0}
    for pi, lam in _probe_cases(2400, seed=12):
        kern = _AbsorptionKernel(pi, lam)
        assert kern._eig_ok == _expm_probe(kern), lam.entries
        decided[kern._eig_ok] += 1
    # both outcomes are well represented
    assert min(decided.values()) >= 400, decided
    assert _AbsorptionKernel(JORDAN_PI, JORDAN_LAM)._eig_ok is False
    for preset in (GOMPERTZ_STUDY, WEIBULL_STUDY):
        assert _AbsorptionKernel(preset.pi, preset.lam)._eig_ok is True


def test_expm_route_score_underflow_is_nan():
    # g_inv(7) = e^7 - 1 at beta = 1: the density underflows to 0 there,
    # and the expm route's ratio is 0/0
    obj = BetaObjective(GOMPERTZ, JORDAN_PI, JORDAN_LAM, np.array([0.5, 7.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert np.isnan(beta_gradient(obj, 1.0))
    assert [str(w.message) for w in caught] == ["score underflow at observation 1 (t=7)"]


@pytest.mark.parametrize("kind", [GOMPERTZ, WEIBULL, IDENTITY])
def test_gd_trace_rows_are_the_objective(kind, gompertz_lam, gompertz_pi, weibull_lam, weibull_pi):
    # the ascent and the public functions evaluate the objective one way
    if kind == GOMPERTZ:
        obj = BetaObjective(kind, gompertz_pi, gompertz_lam,
                            _gompertz_times(300, 78, gompertz_lam, gompertz_pi))
        beta0, eta = 0.05, 1e-6
    else:
        times = np.random.default_rng(79).uniform(0.1, 2.0, size=200)
        obj = BetaObjective(kind, weibull_pi, weibull_lam, times)
        beta0, eta = 1.5, 1e-4
    trace = []
    gd_solve(obj, beta0=beta0, eta=eta, e_ell=1e-3, trace=trace)
    assert len(trace) >= (1 if kind == IDENTITY else 3)
    for _step, beta, ell, grad in trace:
        assert beta_loglik(obj, beta) == ell
        assert beta_gradient(obj, beta) == grad


# ---------------------------------------------------------------------------
# gradient ascent


def test_gd_identity_converges_in_one_step():
    obj = BetaObjective(IDENTITY, POINT_MASS, ONE_STATE, np.array([1.0, 2.0]))
    beta, steps = gd_solve(obj, beta0=0.7, eta=0.1, e_ell=1e-3)
    assert beta == 0.7
    assert steps == 1


def test_gd_monotone_ascent_from_below(gompertz_lam, gompertz_pi):
    times = _gompertz_times(400, 75, gompertz_lam, gompertz_pi)
    obj = BetaObjective(GOMPERTZ, gompertz_pi, gompertz_lam, times)
    trace = []
    beta, steps = gd_solve(obj, beta0=0.05, eta=1e-6, e_ell=0.01, trace=trace)
    betas = [row[1] for row in trace]
    assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
    assert abs(beta - 0.1019) <= 0.03
    assert steps == len(trace)


def test_gd_clamps_at_beta_min():
    # one observation far in the tail: the first update is hugely negative
    # and the generous threshold accepts the clamped point immediately
    obj = BetaObjective(GOMPERTZ, POINT_MASS, ONE_STATE, np.array([5.0]))
    beta, steps = gd_solve(obj, beta0=0.5, eta=10.0, e_ell=1e9)
    assert beta == 1e-5
    assert steps == 1


def test_gd_nonconvergence_carries_trace(gompertz_lam, gompertz_pi):
    times = _gompertz_times(100, 76, gompertz_lam, gompertz_pi)
    obj = BetaObjective(GOMPERTZ, gompertz_pi, gompertz_lam, times)
    with pytest.raises(NonConvergenceError) as exc:
        gd_solve(obj, beta0=0.05, eta=1e-9, e_ell=1e-9, max_steps=3)
    assert len(exc.value.trace) == 3


def test_gd_cycle_fails_fast():
    # the score is +1.25 at beta_min and about -2.7 at 1.25: eta = 1 steps
    # up to 1.25 and clamps back, so the ascent would cycle for ever
    obj = BetaObjective(GOMPERTZ, POINT_MASS, ONE_STATE, np.array([0.5, 1.0, 1.5]))
    with pytest.raises(NonConvergenceError, match=(
        r"^gradient ascent cycles through 2 betas \(1e-05, 1\.24999\) after 2 updates "
        r"on 3 absorption times$"
    )) as exc:
        gd_solve(obj, beta0=1e-5, eta=1.0, e_ell=1e-9)
    assert [row[1] for row in exc.value.trace] == [pytest.approx(1.25, rel=1e-4), 1e-5]
    # consecutive clamps at beta_min converge before they count as a cycle:
    # the score is negative there for these times
    obj = BetaObjective(GOMPERTZ, POINT_MASS, ONE_STATE, np.array([3.0, 4.0, 5.0]))
    assert gd_solve(obj, beta0=0.5, eta=10.0, e_ell=1e-9) == (1e-5, 2)


def test_gd_argument_validation():
    obj = BetaObjective(IDENTITY, POINT_MASS, ONE_STATE, np.array([1.0]))
    with pytest.raises(ValidationError):
        gd_solve(obj, beta0=1.0, eta=0.0, e_ell=0.1)
    with pytest.raises(ValidationError):
        gd_solve(obj, beta0=1.0, eta=0.1, e_ell=-1.0)
    with pytest.raises(ValidationError):
        gd_solve(obj, beta0=1e-6, eta=0.1, e_ell=0.1)  # below beta_min

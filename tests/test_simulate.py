import numpy as np
import pytest
from scipy.stats import kstest

from iphfit import (
    BridgeBudgetError,
    ContinuousPath,
    FitConfig,
    HOMOGENEOUS,
    IDENTITY,
    InitialDistribution,
    PanelObservationSet,
    PanelPath,
    RandomStream,
    ScalingFamily,
    StructuralError,
    SubIntensityMatrix,
    ValidationError,
    _kernels,
    bridge_sample,
    check_absorbable,
    discretize,
    sem_iteration,
    simulate_homogeneous,
    simulate_inhomogeneous,
)
from iphfit.simulate import jump_model
from iphfit.studies import cohort_panel, simulate_cohort

ONE_STATE = SubIntensityMatrix(np.array([[-1.0]]))
POINT_MASS = InitialDistribution(np.array([1.0]))


# ---------------------------------------------------------------------------
# homogeneous simulation


def test_exponential_absorption_mean():
    # the identity family keeps the homogeneous epochs; path k draws from
    # root.substream(k), as simulate_homogeneous would
    cohort = simulate_cohort(
        POINT_MASS, ONE_STATE, ScalingFamily.identity(), np.inf, 100_000, RandomStream(11),
        key_prefix=(),
    )
    assert abs(cohort.end_times.mean() - 1.0) <= 0.02


def test_initial_state_frequencies(weibull_lam, weibull_pi):
    # horizon 0 keeps only the initial draw, which is all this oracle needs
    cohort = simulate_cohort(
        weibull_pi, weibull_lam, ScalingFamily.identity(), 0.0, 100_000, RandomStream(12),
        key_prefix=(),
    )
    starts = cohort.states[cohort.bounds[:-1]] + 1
    freq = np.mean(starts == 1)
    assert abs(freq - 0.5) <= 0.01


def test_horizon_zero_path():
    p = simulate_homogeneous(ONE_STATE, POINT_MASS, 0.0, RandomStream(1))
    assert not p.absorbed
    assert p.times.tolist() == [0.0]
    assert p.end_time == 0.0


def test_infinite_horizon_requires_absorbability():
    stuck = SubIntensityMatrix(np.array([[0.0]]))
    with pytest.raises(StructuralError):
        simulate_homogeneous(stuck, POINT_MASS, np.inf, RandomStream(1))
    # a finite horizon is fine: the path just sits in state 1
    p = simulate_homogeneous(stuck, POINT_MASS, 4.0, RandomStream(1))
    assert not p.absorbed and p.end_time == 4.0


def test_check_absorbable_names_state():
    # state 2 cannot reach absorption: zero row
    m = SubIntensityMatrix(np.array([[-1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(StructuralError) as exc:
        check_absorbable(m, [1])
    assert "2" in str(exc.value)


def test_holding_time_law(weibull_lam, weibull_pi):
    root = RandomStream(13)
    pi1 = InitialDistribution(np.array([1.0, 0.0]))
    holds = []
    k = 0
    while len(holds) < 10_000:
        p = simulate_homogeneous(weibull_lam, pi1, np.inf, root.substream(k))
        holds.append(p.times[1] - p.times[0])
        k += 1
    res = kstest(np.asarray(holds), "expon", args=(0.0, 1.0 / 3.0))
    assert res.pvalue > 0.01


def test_reproducible_draws(gompertz_lam, gompertz_pi):
    a = simulate_homogeneous(gompertz_lam, gompertz_pi, 50.0, RandomStream(5, (3,)))
    b = simulate_homogeneous(gompertz_lam, gompertz_pi, 50.0, RandomStream(5, (3,)))
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.states, b.states)


# ---------------------------------------------------------------------------
# inhomogeneous simulation


def test_identity_equals_homogeneous(gompertz_lam, gompertz_pi):
    rng = RandomStream(21, (4,))
    hom = simulate_homogeneous(gompertz_lam, gompertz_pi, 30.0, rng)
    inh = simulate_inhomogeneous(
        gompertz_lam, gompertz_pi, ScalingFamily(IDENTITY), 30.0, rng
    )
    np.testing.assert_array_equal(hom.states, inh.states)
    np.testing.assert_allclose(hom.times, inh.times, atol=0.0)
    assert hom.end_time == inh.end_time


def test_weibull_epochs_are_cube_roots(weibull_lam, weibull_pi):
    fam = ScalingFamily.weibull(3.0)
    rng = RandomStream(22, (9,))
    hom = simulate_homogeneous(weibull_lam, weibull_pi, fam.g_inv(5.0), rng)
    inh = simulate_inhomogeneous(weibull_lam, weibull_pi, fam, 5.0, rng)
    np.testing.assert_array_equal(hom.states, inh.states)
    np.testing.assert_allclose(
        inh.times[1:], np.cbrt(hom.times[1:]), rtol=1e-12, atol=1e-12
    )


def test_transform_of_samples_oracle(gompertz_lam, gompertz_pi):
    fam = ScalingFamily.gompertz(0.1019)
    root = RandomStream(23)
    rho, tau = (
        simulate_cohort(gompertz_pi, gompertz_lam, f, np.inf, 100_000, root, key_prefix=()).end_times
        for f in (ScalingFamily.identity(), fam)
    )
    hom_means = np.log1p(0.1019 * rho) / 0.1019
    inh_means = tau
    # identical substreams make the transform exact path by path
    np.testing.assert_allclose(inh_means, hom_means, rtol=1e-12, atol=1e-12)
    assert abs(inh_means.mean() - hom_means.mean()) <= 1e-10


def test_censored_end_time_is_horizon(gompertz_lam, gompertz_pi):
    fam = ScalingFamily.gompertz(0.1019)
    found = False
    for k in range(200):
        p = simulate_inhomogeneous(
            gompertz_lam, gompertz_pi, fam, 3.0, RandomStream(24, (k,))
        )
        if not p.absorbed:
            assert p.end_time == 3.0
            found = True
    assert found


# ---------------------------------------------------------------------------
# discretization


def _two_state_path():
    return ContinuousPath(
        n=2,
        times=np.array([0.0, 0.35]),
        states=np.array([1, 2]),
        end_time=1.0,
        timeline=HOMOGENEOUS,
    )


def test_discretize_cadlag_lookup():
    panel = discretize(_two_state_path(), np.arange(0.0, 1.01, 0.1), "q")
    t = panel.times
    s = panel.states
    assert s[np.isclose(t, 0.3)][0] == 1
    assert s[np.isclose(t, 0.4)][0] == 2


def test_discretize_absorption_grid_point():
    path = ContinuousPath(
        n=2,
        times=np.array([0.0, 2.7]),
        states=np.array([1, 3]),
        end_time=2.7,
        timeline=HOMOGENEOUS,
    )
    panel = discretize(path, np.arange(0.0, 6.0), "q")
    assert panel.times[-1] == 3.0
    assert panel.states[-1] == 3
    assert panel.times.size == 4  # 0,1,2 then the absorption record at 3


def test_discretize_drops_post_censoring_grid():
    panel = discretize(_two_state_path(), np.array([0.0, 0.5, 1.0, 1.5, 2.0]), "q")
    assert panel.times[-1] == 1.0
    assert panel.states.tolist() == [1, 2, 2]


def test_discretize_rejects_bad_grid():
    with pytest.raises(ValidationError):
        discretize(_two_state_path(), np.array([]), "q")
    with pytest.raises(ValidationError):
        discretize(_two_state_path(), np.array([0.5, 1.0]), "q")
    with pytest.raises(ValidationError):
        discretize(_two_state_path(), np.array([0.0, 0.0, 1.0]), "q")


def test_discretize_agrees_with_state_lookup(gompertz_lam, gompertz_pi):
    grid = np.arange(0.0, 40.0)
    for k in range(50):
        p = simulate_homogeneous(
            gompertz_lam, gompertz_pi, 39.0, RandomStream(31, (k,))
        )
        panel = discretize(p, grid, f"p{k}")
        for t, s in zip(panel.times, panel.states):
            if s == 4:
                assert p.absorbed and p.times[-1] <= t
            else:
                assert s == p.state_at(t)


def test_cohort_panel_agrees_with_state_lookup(gompertz_lam, gompertz_pi):
    """A whole cohort observed at once, against each path's own state_at:
    absorbed and censored paths, on a grid that runs past the horizon."""
    fam = ScalingFamily.gompertz(0.1019)
    cohort = simulate_cohort(gompertz_pi, gompertz_lam, fam, 30.0, 300, RandomStream(32))
    grid = np.arange(0.0, 36.0, 1.5)
    panel = cohort_panel(cohort, grid)
    assert 0 < cohort.absorbed.sum() < len(cohort) == len(panel)
    for k, (p, obs) in enumerate(zip(cohort, panel.paths)):
        assert obs.path_id == f"p{k}"
        if p.absorbed:
            within = grid[grid < p.times[-1]]
            assert obs.times.tolist() == grid[: within.size + 1].tolist()
        else:
            assert obs.times.tolist() == grid[grid <= p.end_time].tolist()
        for t, s in zip(obs.times, obs.states):
            assert s == (4 if p.absorbed and p.times[-1] <= t else p.state_at(t))


# ---------------------------------------------------------------------------
# bridges


@pytest.mark.properties
def test_bridge_endpoint_exactness(gompertz_lam):
    rng = np.random.default_rng(41)
    for trial in range(50):
        x = int(rng.integers(1, 4))
        y = int(rng.integers(1, 5))
        s1 = float(rng.uniform(0.0, 5.0))
        s2 = s1 + float(rng.uniform(0.5, 8.0))
        try:
            seg = bridge_sample(
                gompertz_lam, s1, x, s2, y, RandomStream(42, (trial,)),
                max_attempts=200_000,
            )
        except BridgeBudgetError:
            continue  # endpoint pair too unlikely for the budget; allowed
        assert seg.start_state == x
        assert seg.terminal_state == y
        assert seg.start_time == s1
        assert seg.end_time == s2
        if seg.jump_times.size:
            assert seg.jump_times[0] > s1
            assert seg.jump_times[-1] <= s2
            assert np.all(np.diff(seg.jump_times) > 0.0)


def test_bridge_same_endpoint_short_interval(weibull_lam):
    seg = bridge_sample(weibull_lam, 2.0, 2, 2.0 + 1e-9, 2, RandomStream(43))
    assert seg.start_state == 2 and seg.terminal_state == 2
    assert seg.jump_times.size == 0


def test_bridge_impossible_pair_errors():
    disconnected = SubIntensityMatrix(np.array([[-1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(BridgeBudgetError) as exc:
        bridge_sample(disconnected, 0.0, 1, 1.0, 2, RandomStream(44), max_attempts=500)
    assert exc.value.attempts == 500


def test_bridge_rejects_bad_arguments(weibull_lam):
    with pytest.raises(ValidationError):
        bridge_sample(weibull_lam, 1.0, 1, 1.0, 2, RandomStream(1))  # s1 == s2
    with pytest.raises(ValidationError):
        bridge_sample(weibull_lam, 0.0, 3, 1.0, 2, RandomStream(1))  # x absorbing


# ---------------------------------------------------------------------------
# censored completion: the SE-step's completion of a path whose last
# observation is transient


def _complete_censored(m, last_state, rng, buffers):
    """A path observed once, at 0 in ``last_state``, completed as the
    SE-step does: returns the absorption epoch and the entered states."""
    cum, total = jump_model(m)
    times, states = buffers
    status, _, count, end, _ = _kernels.complete_panel_path(
        rng.generator(), np.zeros(1), np.array([last_state - 1]), cum, total, m.n, 1,
        times, states,
    )
    assert status == 0
    return end, states[:count] + 1


def _buffers():
    return np.empty(4096), np.empty(4096, dtype=np.int64)


def test_complete_censored_exponential_mean():
    root = RandomStream(51)
    buffers = _buffers()
    times = np.array(
        [_complete_censored(ONE_STATE, 1, root.substream(k), buffers)[0] for k in range(100_000)]
    )
    assert abs(times.mean() - 1.0) <= 0.02


def test_complete_censored_single_jump_structure():
    m = SubIntensityMatrix(np.array([[-1.0, 0.0], [0.2, -0.5]]))
    buffers = _buffers()
    for k in range(20):
        end, states = _complete_censored(m, 1, RandomStream(52, (k,)), buffers)
        assert states.tolist() == [3]
        assert end > 0.0


def test_complete_censored_fundamental_matrix_oracle(clinic_lam):
    expected = np.linalg.solve(-clinic_lam.entries, np.ones(3))[2]
    root = RandomStream(53)
    buffers = _buffers()
    n_runs = 30_000
    times = np.array(
        [_complete_censored(clinic_lam, 3, root.substream(k), buffers)[0] for k in range(n_runs)]
    )
    tol = 5.0 * times.std() / np.sqrt(n_runs)
    assert abs(times.mean() - expected) <= tol


def test_complete_censored_unreachable_absorption_errors():
    stuck = SubIntensityMatrix(np.array([[0.0]]))
    data = PanelObservationSet(1, (PanelPath("a", np.array([0.0, 1.0]), np.array([1, 1])),))
    cfg = FitConfig(family=IDENTITY)
    with pytest.raises(StructuralError, match="^iteration 1: absorption is unreachable"):
        sem_iteration(data, POINT_MASS, stuck, None, cfg, RandomStream(54), 1)

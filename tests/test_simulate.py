import numpy as np
import pytest
from scipy.stats import kstest

from iphfit import (
    BridgeBudgetError,
    FitConfig,
    FlatPaths,
    HOMOGENEOUS,
    IDENTITY,
    InitialDistribution,
    PanelObservationSet,
    RandomStream,
    ScalingFamily,
    StructuralError,
    SubIntensityMatrix,
    ValidationError,
    _kernels,
    check_absorbable,
    sem_iteration,
)
from iphfit.simulate import bridge_model, bridge_sample, jump_model, observe, simulate_paths
from iphfit.studies import cohort_panel, simulate_cohort

ONE_STATE = SubIntensityMatrix(np.array([[-1.0]]))
POINT_MASS = InitialDistribution(np.array([1.0]))
# the identity family keeps the chain's own (homogeneous) epochs
CHAIN = ScalingFamily("identity")


def _state_at(path, t):
    """The state ``path`` occupies at ``t``: the last one entered at or
    before it."""
    return int(path.states[np.searchsorted(path.times, t, side="right") - 1])


# ---------------------------------------------------------------------------
# homogeneous simulation


def test_exponential_absorption_mean():
    # path k draws from root.substream(k)
    cohort = simulate_cohort(
        POINT_MASS, ONE_STATE, ScalingFamily("identity"), np.inf, 100_000, RandomStream(11),
        key_prefix=(),
    )
    assert abs(cohort.end_times.mean() - 1.0) <= 0.02


def test_initial_state_frequencies(weibull_lam, weibull_pi):
    # horizon 0 keeps only the initial draw, which is all this oracle needs
    cohort = simulate_cohort(
        weibull_pi, weibull_lam, ScalingFamily("identity"), 0.0, 100_000, RandomStream(12),
        key_prefix=(),
    )
    starts = cohort.states[cohort.bounds[:-1]] + 1
    freq = np.mean(starts == 1)
    assert abs(freq - 0.5) <= 0.01


def test_horizon_zero_path():
    p = simulate_paths(ONE_STATE, POINT_MASS, CHAIN, 0.0, RandomStream(1), 1)
    assert not p.absorbed[0]
    assert p.times.tolist() == [0.0]
    assert p.end_times.tolist() == [0.0]


def test_infinite_horizon_requires_absorbability():
    stuck = SubIntensityMatrix(np.array([[0.0]]))
    with pytest.raises(StructuralError):
        simulate_paths(stuck, POINT_MASS, CHAIN, np.inf, RandomStream(1), 1)
    # a finite horizon is fine: the path just sits in state 1
    p = simulate_paths(stuck, POINT_MASS, CHAIN, 4.0, RandomStream(1), 1)
    assert not p.absorbed[0] and p.end_times.tolist() == [4.0]


def test_check_absorbable_names_state():
    # state 2 cannot reach absorption: zero row
    m = SubIntensityMatrix(np.array([[-1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(StructuralError) as exc:
        check_absorbable(m, [1])
    assert "2" in str(exc.value)


def test_holding_time_law(weibull_lam, weibull_pi):
    pi1 = InitialDistribution(np.array([1.0, 0.0]))
    paths = simulate_paths(weibull_lam, pi1, CHAIN, np.inf, RandomStream(13), 10_000)
    # every path enters state 1 at 0 and leaves it at its first jump
    assert np.all(paths.states[paths.bounds[:-1]] == 0)
    holds = paths.times[paths.bounds[:-1] + 1]
    res = kstest(holds, "expon", args=(0.0, 1.0 / 3.0))
    assert res.pvalue > 0.01


def test_reproducible_draws(gompertz_lam, gompertz_pi):
    a, b = (
        simulate_paths(gompertz_lam, gompertz_pi, CHAIN, 50.0, RandomStream(5, (3,)), 20)
        for _ in range(2)
    )
    assert a.times.tobytes() == b.times.tobytes()
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.bounds, b.bounds)
    assert a.end_times.tobytes() == b.end_times.tobytes()


def test_random_stream_rejects_negative_seed_and_keys():
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        RandomStream(-1)
    with pytest.raises(ValidationError, match="stream keys must be non-negative integers"):
        RandomStream(0, (-1,))
    with pytest.raises(ValidationError, match="stream keys must be non-negative integers"):
        RandomStream(3).substream(2, -1)
    assert RandomStream(3).substream(2, 0).key == (2, 0)


# ---------------------------------------------------------------------------
# inhomogeneous simulation


def test_identity_equals_homogeneous(gompertz_lam, gompertz_pi):
    """Under the identity family the paths are the jump chain's own, as
    the simulation sweep draws them."""
    inh = simulate_paths(
        gompertz_lam, gompertz_pi, ScalingFamily(IDENTITY), 30.0, RandomStream(21, (4,)), 50
    )
    cum, total = jump_model(gompertz_lam)
    times, states, bounds, ends = _kernels.simulate_sweep(
        _kernels.stream_words(21, 4), np.arange(50, dtype=np.int64),
        np.cumsum(gompertz_pi.probabilities), cum, total, 3, 30.0,
    )
    assert inh.times.tobytes() == times.tobytes()
    np.testing.assert_array_equal(inh.states, states)
    np.testing.assert_array_equal(inh.bounds, bounds)
    assert inh.end_times.tobytes() == ends.tobytes()


def test_weibull_epochs_are_cube_roots(weibull_lam, weibull_pi):
    fam = ScalingFamily("weibull", 3.0)
    rng = RandomStream(22, (9,))
    hom = simulate_paths(weibull_lam, weibull_pi, CHAIN, fam.g_inv(5.0), rng, 50)
    inh = simulate_paths(weibull_lam, weibull_pi, fam, 5.0, rng, 50)
    np.testing.assert_array_equal(hom.states, inh.states)
    np.testing.assert_array_equal(hom.bounds, inh.bounds)
    jumps = np.ones(inh.times.size, dtype=bool)
    jumps[inh.bounds[:-1]] = False
    assert jumps.any()
    np.testing.assert_allclose(
        inh.times[jumps], np.cbrt(hom.times[jumps]), rtol=1e-12, atol=1e-12
    )


def test_transform_of_samples_oracle(gompertz_lam, gompertz_pi):
    fam = ScalingFamily("gompertz", 0.1019)
    root = RandomStream(23)
    rho, tau = (
        simulate_cohort(gompertz_pi, gompertz_lam, f, np.inf, 100_000, root, key_prefix=()).end_times
        for f in (ScalingFamily("identity"), fam)
    )
    hom_means = np.log1p(0.1019 * rho) / 0.1019
    inh_means = tau
    # identical substreams make the transform exact path by path
    np.testing.assert_allclose(inh_means, hom_means, rtol=1e-12, atol=1e-12)
    assert abs(inh_means.mean() - hom_means.mean()) <= 1e-10


def test_censored_end_time_is_horizon(gompertz_lam, gompertz_pi):
    fam = ScalingFamily("gompertz", 0.1019)
    paths = simulate_paths(gompertz_lam, gompertz_pi, fam, 3.0, RandomStream(24), 200)
    censored = ~paths.absorbed
    assert censored.any()
    assert np.all(paths.end_times[censored] == 3.0)


# ---------------------------------------------------------------------------
# observation on a grid


def _one_path(times, states, end_time):
    """One homogeneous path of the 2-state model, 1-based ``states``."""
    return FlatPaths(
        2, np.array(times, dtype=float), np.array(states) - 1, np.array([0, len(times)]),
        np.array([end_time]), HOMOGENEOUS,
    )


def _two_state_path():
    return _one_path([0.0, 0.35], [1, 2], 1.0)


def test_discretize_cadlag_lookup():
    panel = observe(_two_state_path(), np.arange(0.0, 1.01, 0.1), ["q"])
    t = panel.times
    s = panel.states
    assert s[np.isclose(t, 0.3)][0] == 1
    assert s[np.isclose(t, 0.4)][0] == 2


def test_discretize_absorption_grid_point():
    panel = observe(_one_path([0.0, 2.7], [1, 3], 2.7), np.arange(0.0, 6.0), ["q"])
    assert panel.times[-1] == 3.0
    assert panel.states[-1] == 3
    assert panel.times.size == 4  # 0,1,2 then the absorption record at 3


def test_discretize_drops_post_censoring_grid():
    panel = observe(_two_state_path(), np.array([0.0, 0.5, 1.0, 1.5, 2.0]), ["q"])
    assert panel.times[-1] == 1.0
    assert panel.states.tolist() == [1, 2, 2]


def test_discretize_rejects_bad_grid():
    with pytest.raises(ValidationError):
        observe(_two_state_path(), np.array([]), ["q"])
    with pytest.raises(ValidationError):
        observe(_two_state_path(), np.array([0.5, 1.0]), ["q"])
    with pytest.raises(ValidationError):
        observe(_two_state_path(), np.array([0.0, 0.0, 1.0]), ["q"])


def test_discretize_agrees_with_state_lookup(gompertz_lam, gompertz_pi):
    grid = np.arange(0.0, 40.0)
    paths = simulate_paths(gompertz_lam, gompertz_pi, CHAIN, 39.0, RandomStream(31), 50)
    panel = observe(paths, grid, [f"p{k}" for k in range(50)])
    bounds = panel.starts.tolist()
    for k, p in enumerate(paths):
        a, b = bounds[k], bounds[k + 1]
        for t, s in zip(panel.times[a:b], panel.states[a:b]):
            if s == 4:
                assert p.absorbed and p.times[-1] <= t
            else:
                assert s == _state_at(p, t)


def test_cohort_panel_agrees_with_state_lookup(gompertz_lam, gompertz_pi):
    """A whole cohort observed at once, against each path's own states:
    absorbed and censored paths, on a grid that runs past the horizon."""
    fam = ScalingFamily("gompertz", 0.1019)
    cohort = simulate_cohort(gompertz_pi, gompertz_lam, fam, 30.0, 300, RandomStream(32))
    grid = np.arange(0.0, 36.0, 1.5)
    panel = cohort_panel(cohort, grid)
    assert 0 < cohort.absorbed.sum() < len(cohort) == len(panel)
    bounds = panel.starts.tolist()
    for k, p in enumerate(cohort):
        assert panel.ids[k] == f"p{k}"
        times = panel.times[bounds[k]:bounds[k + 1]]
        states = panel.states[bounds[k]:bounds[k + 1]]
        if p.absorbed:
            within = grid[grid < p.times[-1]]
            assert times.tolist() == grid[: within.size + 1].tolist()
        else:
            assert times.tolist() == grid[grid <= p.end_time].tolist()
        for t, s in zip(times, states):
            assert s == (4 if p.absorbed and p.times[-1] <= t else _state_at(p, t))


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
            jump_times, jump_states = bridge_sample(
                gompertz_lam, s1, x, s2, y, RandomStream(42, (trial,)),
                max_attempts=200_000,
            )
        except BridgeBudgetError:
            continue  # endpoint pair too unlikely for the budget; allowed
        entered = np.concatenate(([x], jump_states))
        assert entered[-1] == y
        assert np.all(entered[1:] != entered[:-1])
        assert np.all((jump_states >= 1) & (jump_states <= 4))
        assert not np.any(jump_states[:-1] == 4)  # absorption comes last
        assert jump_times.shape == jump_states.shape
        if jump_times.size:
            assert jump_times[0] > s1
            assert jump_times[-1] <= s2
            assert np.all(np.diff(jump_times) > 0.0)


def test_bridge_same_endpoint_short_interval(weibull_lam):
    jump_times, jump_states = bridge_sample(weibull_lam, 2.0, 2, 2.0 + 1e-9, 2, RandomStream(43))
    assert jump_times.size == 0 and jump_states.size == 0


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


def _complete_censored(m, last_state, seed, count):
    """``count`` paths, each observed once, at 0 in ``last_state``, completed
    by one SE-step sweep as a fit runs it: returns the completed paths'
    jump epochs, 0-based states and offsets, and their absorption epochs."""
    cum, total, mu, ptrans = bridge_model(m)
    status, *_, paths = _kernels.complete_sweep(
        _kernels.stream_words(seed), 1, np.arange(count, dtype=np.int64), np.zeros(count),
        np.full(count, last_state - 1, dtype=np.int64), np.arange(count + 1, dtype=np.int64),
        np.full(count, -1, dtype=np.int64), cum, total, m.n, mu, ptrans, 1, 4096,
    )
    assert status == 0
    times, states, bounds = paths
    return times, states, bounds, times[bounds[1:] - 1]


def test_complete_censored_exponential_mean():
    *_, ends = _complete_censored(ONE_STATE, 1, 51, 100_000)
    assert abs(ends.mean() - 1.0) <= 0.02


def test_complete_censored_single_jump_structure():
    m = SubIntensityMatrix(np.array([[-1.0, 0.0], [0.2, -0.5]]))
    times, states, bounds, ends = _complete_censored(m, 1, 52, 20)
    # each path: its entry into state 1 at 0, then one jump, into absorption
    assert bounds.tolist() == list(range(0, 41, 2))
    assert states.tolist() == [0, 2] * 20
    assert np.all(ends > 0.0)


def test_complete_censored_fundamental_matrix_oracle(clinic_lam):
    expected = np.linalg.solve(-clinic_lam.entries, np.ones(3))[2]
    n_runs = 30_000
    *_, times = _complete_censored(clinic_lam, 3, 53, n_runs)
    tol = 5.0 * times.std() / np.sqrt(n_runs)
    assert abs(times.mean() - expected) <= tol


def test_complete_censored_unreachable_absorption_errors():
    stuck = SubIntensityMatrix(np.array([[0.0]]))
    data = PanelObservationSet(1, ["a"], [0.0, 1.0], [1, 1], [0, 2])
    cfg = FitConfig(family=IDENTITY)
    with pytest.raises(StructuralError, match="^iteration 1: absorption is unreachable"):
        sem_iteration(data, POINT_MASS, stuck, None, cfg, RandomStream(54), 1)

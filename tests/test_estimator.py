import contextlib
from dataclasses import replace

import numpy as np
import pytest

from iphfit import (
    ContinuousPath,
    EstimationError,
    FitConfig,
    GOMPERTZ,
    HOMOGENEOUS,
    IDENTITY,
    InitialDistribution,
    PanelObservationSet,
    RandomStream,
    ScalingFamily,
    SubIntensityMatrix,
    ValidationError,
    WEIBULL,
    empirical_pi,
    fit,
    initialize,
    mle_generator,
    sem_iteration,
    validate_generator,
)
from iphfit import _kernels, estimator
from iphfit.errors import NumericalError, StarvedStateError, StructuralError
from iphfit.likelihood import accumulate_statistics, flat_statistics
from iphfit.simulate import simulate_paths
from iphfit.studies import cohort_panel, simulate_cohort, uniform_grid

from conftest import exact_path, panel_from_rows as _panel


def make_panel(pi, lam, family, horizon, delta, count, seed):
    stream = RandomStream(seed)
    cohort = simulate_cohort(pi, lam, family, horizon, count, stream)
    return cohort_panel(cohort, uniform_grid(horizon, delta))


GOMPERTZ_CFG = FitConfig(family=GOMPERTZ, beta0=1.0, eta=1e-6, e_ell=0.01)
WEIBULL_CFG = FitConfig(family=WEIBULL, beta0=2.0, eta=1e-4, e_ell=0.01)


# ---------------------------------------------------------------------------
# empirical initial distribution


def test_empirical_pi_counts_first_states():
    data = _panel(
        3,
        [
            ("a", [0.0, 1.0], [1, 1]),
            ("b", [0.0, 1.0], [1, 2]),
            ("c", [0.0, 1.0], [2, 4]),
            ("d", [0.0, 1.0], [3, 3]),
        ],
    )
    np.testing.assert_allclose(
        empirical_pi(data).probabilities, [0.5, 0.25, 0.25]
    )


def test_empirical_pi_degenerate_cases():
    all_one = _panel(3, [(f"p{k}", [0.0, 1.0], [1, 1]) for k in range(5)])
    np.testing.assert_allclose(empirical_pi(all_one).probabilities, [1, 0, 0])
    single = _panel(2, [("x", [0.0], [2])])
    np.testing.assert_allclose(empirical_pi(single).probabilities, [0, 1])


def test_empirical_pi_rejects_absorbing_start_and_empty():
    with pytest.raises(ValidationError, match="absorbing"):
        empirical_pi(_panel(2, [("a", [0.0], [3])]))
    with pytest.raises(ValidationError):
        empirical_pi(PanelObservationSet(2, (), [], [], [0]))


# ---------------------------------------------------------------------------
# initialization


def test_initialize_naive_bookkeeping():
    # read panel jumps as exact: R=(2,2), N12=1, N21=1, 2 absorptions from 2
    data = _panel(
        2,
        [
            ("a", [0.0, 1.0, 2.0, 3.0], [1, 1, 2, 3]),
            ("b", [0.0, 1.0], [2, 3]),
        ],
    )
    cfg = FitConfig(family=IDENTITY)
    pi0, lam0, beta0 = initialize(data, cfg, RandomStream(0))
    np.testing.assert_allclose(pi0.probabilities, [0.5, 0.5])
    np.testing.assert_allclose(lam0.entries, [[-0.5, 0.5], [0.0, -1.0]])
    assert beta0 == cfg.beta0


def _per_path_sums(paths, n):
    """Statistics path by path: the entry, then each holding and jump in
    order, then a censored path's tail."""
    b, nt, na, r = (np.zeros(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64),
                    np.zeros(n, dtype=np.int64), np.zeros(n))
    for p in paths:
        t, x = p.times, p.states - 1
        b[x[0]] += 1
        for i in range(1, t.size):
            r[x[i - 1]] += t[i] - t[i - 1]
            if x[i] < n:
                nt[x[i - 1], x[i]] += 1
            else:
                na[x[i - 1]] += 1
        if x[-1] < n:
            r[x[-1]] += p.end_time - t[-1]
    return [a.tobytes() for a in (b, nt, na, r)]


def _stats_bytes(stats):
    return [np.asarray(a).tobytes() for a in (
        stats.start_counts, stats.jump_counts, stats.absorption_counts, stats.occupation
    )]


def test_statistics_match_per_path_sums(gompertz_pi, gompertz_lam):
    """The flat tally of the naive reading, and accumulate_statistics, give
    the per-path sums bit for bit: on each panel path read as a continuous
    path, and on simulated censored paths."""
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    data = make_panel(gompertz_pi, gompertz_lam, fam, 30.0, 0.7, 200, 83)
    naive = []
    bounds = data.starts.tolist()
    for a, b in zip(bounds, bounds[1:]):
        t, s = data.times[a:b], data.states[a:b]
        keep = np.concatenate(([True], s[1:] != s[:-1]))
        naive.append(ContinuousPath(n=3, times=t[keep], states=s[keep], end_time=t[-1],
                                    timeline=HOMOGENEOUS))
    assert 0 < sum(p.absorbed for p in naive) < len(naive)
    assert sum(p.times.size < size for p, size in zip(naive, np.diff(bounds))) > 100
    want = _per_path_sums(naive, 3)
    assert _stats_bytes(estimator._naive_statistics(estimator._PanelArrays(data))) == want
    assert _stats_bytes(accumulate_statistics(naive)) == want
    # the identity family keeps the homogeneous epochs
    simulated = replace(
        simulate_paths(gompertz_lam, gompertz_pi, ScalingFamily("identity"), 20.0,
                       RandomStream(84), 200),
        timeline=HOMOGENEOUS,
    )
    assert 0 < simulated.absorbed.sum() < len(simulated)
    want = _per_path_sums(simulated, 3)
    assert _stats_bytes(accumulate_statistics(simulated)) == want
    assert _stats_bytes(flat_statistics(
        simulated.times, simulated.states, simulated.bounds, simulated.end_times, 3
    )) == want


def test_initialize_on_simulated_panel(gompertz_pi, gompertz_lam):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    data = make_panel(gompertz_pi, gompertz_lam, fam, 30.0, 1.0, 60, 81)
    pi0, lam0, beta0 = initialize(data, GOMPERTZ_CFG, RandomStream(81))
    assert validate_generator(lam0).ok
    assert np.all(np.isfinite(lam0.entries))
    assert beta0 >= GOMPERTZ_CFG.beta_min
    assert pi0.probabilities.sum() == pytest.approx(1.0)


def test_initialize_without_absorbed_paths_keeps_beta0():
    data = _panel(
        2,
        [
            ("a", [0.0, 1.0, 2.0], [1, 2, 2]),
            ("b", [0.0, 1.0, 2.0], [2, 1, 1]),
        ],
    )
    with pytest.warns(RuntimeWarning, match="no absorbed paths"):
        _, _, beta0 = initialize(data, GOMPERTZ_CFG, RandomStream(3))
    assert beta0 == GOMPERTZ_CFG.beta0


def test_fit_unpacks_the_panel_once(monkeypatch, gompertz_pi, gompertz_lam):
    """fit hands one _PanelArrays to initialization and to every sweep,
    for a scaled family and for the identity family."""
    made = []
    unpack = estimator._PanelArrays.__init__

    def counted(self, data):
        made.append(data)
        unpack(self, data)

    monkeypatch.setattr(estimator._PanelArrays, "__init__", counted)
    data = make_panel(gompertz_pi, gompertz_lam, ScalingFamily(GOMPERTZ, 0.1019), 30.0, 1.0,
                      60, 81)
    fit(data, FitConfig(family=GOMPERTZ, beta0=1.0, eta=1e-6, e_ell=0.01,
                        max_sem_iterations=2), RandomStream(81))
    fit(data, FitConfig(family=IDENTITY, homog_iterations=2,
                        homog_tail_average=1), RandomStream(81))
    assert [d is data for d in made] == [True, True]


def test_fit_rejects_degenerate_panel():
    # single time-0 observation: no occupation anywhere, MLEs undefined
    data = _panel(2, [("a", [0.0], [1])])
    with pytest.raises(EstimationError):
        fit(data, GOMPERTZ_CFG)


def _reference_init_times(panel, lam0, rng):
    """Initialization's latent absorption epochs, one ``exact_path`` per
    absorbed path over its last two observations, on the generator of
    ``rng.substream(0, k)``."""
    out = []
    for k in np.flatnonzero(panel.absorbed):
        times, _states, _counts = exact_path(
            lam0, panel.times[k][-2:], panel.states0[k][-2:], rng.substream(0, int(k)).generator()
        )
        out.append(times[-1])
    return np.array(out)


def test_init_absorption_times_match_bridge_sample(monkeypatch, gompertz_pi, gompertz_lam):
    """The bridges of initialization are those of the per-path exact
    sampler, on either body of the sweep."""
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    panel = estimator._PanelArrays(make_panel(gompertz_pi, gompertz_lam, fam, 30.0, 1.0, 80, 83))
    assert 0 < panel.absorbed.sum() < panel.K  # absorbed and censored paths
    lam0 = mle_generator(estimator._naive_statistics(panel), panel.K)[1]
    rng = RandomStream(2**32 + 9, (1, 2))  # a study fit's key prefix
    want = _reference_init_times(panel, lam0, rng)
    last = panel.starts[1:][panel.absorbed] - 1
    assert np.all((want > panel.flat_times[last - 1]) & (want <= panel.flat_times[last]))
    sweep = _kernels.complete_sweep
    for body in (sweep, getattr(sweep, "py_func", sweep)):
        monkeypatch.setattr(_kernels, "complete_sweep", body)
        got = estimator._init_absorption_times(panel, lam0, rng)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bridge_budget_errors_name_path_and_segment(monkeypatch):
    """Segment k of a path runs from its observation k to k + 1.  The
    sweep's kernel and its Python body name the same path and segment."""
    sweep = _kernels.complete_sweep
    for body in (sweep, getattr(sweep, "py_func", sweep)):
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "complete_sweep", body)
            _check_errors_name_path(patch)


def _check_errors_name_path(monkeypatch):
    cfg = FitConfig(family=IDENTITY)
    # no transient-to-transient rates: path b cannot go from 1 to 2, which
    # is found before any path is drawn
    no_moves = SubIntensityMatrix(np.array([[-1.0, 0.0], [0.0, -1.0]]))
    data = _panel(2, [("a", [0, 1], [1, 3]), ("b", [0, 1, 2, 3], [1, 1, 2, 3])])
    pi = InitialDistribution(np.array([1.0, 0.0]))
    with pytest.raises(StructuralError, match=(
        r"^iteration 1: path b, segment 1: bridge from state 1 to state 2 over duration 1 "
        "has probability 0 under this generator$"
    )):
        sem_iteration(data, pi, no_moves, None, cfg, RandomStream(1), 1)
    # initialization bridges the final segment; state 2 cannot exit
    stuck = SubIntensityMatrix(np.array([[-1.0, 0.0], [0.0, 0.0]]))
    data = _panel(2, [("a", [0, 1], [1, 3]), ("b", [0, 1, 2], [1, 2, 3])])
    with pytest.raises(StructuralError, match=(
        "^path b, segment 1: bridge from state 2 to state 3 over duration 1 has probability 0"
    )):
        estimator._init_absorption_times(estimator._PanelArrays(data), stuck, RandomStream(1))
    # a bridge needing more virtual jumps than the cap: mu * delta = 50
    flips = SubIntensityMatrix(np.array([[-50.0, 49.99], [49.99, -50.0]]))
    data = _panel(2, [("b", [0, 1], [1, 1]), ("a", [0, 1], [2, 3])])
    with monkeypatch.context() as patch:
        patch.setattr(estimator, "_VIRTUAL_CAP", 8)
        with pytest.raises(NumericalError, match=(
            "^path b, segment 0: bridge from state 1 to state 1 over duration 1 needs more "
            "than 8 virtual jumps$"
        )):
            sem_iteration(data, pi, flips, None, cfg, RandomStream(1), 2)
    # two jumps to fit in the one float of (1, 1 + 2**-52]: state 1 must
    # pass through state 2 to absorb (numerical errors carry no iteration)
    chain = SubIntensityMatrix(np.array([[-1.0, 1.0], [0.0, -1.0]]))
    tight = _panel(2, [("a", [0, 1], [1, 3]), ("b", [0, 1, np.nextafter(1.0, 2.0)], [1, 1, 3])])
    with pytest.raises(NumericalError, match=(
        "^path b, segment 1: bridge from state 1 to state 3 over duration "
        "2.22045e-16 runs out of floating-point resolution$"
    )):
        sem_iteration(tight, pi, chain, None, cfg, RandomStream(1), 2)
    # a path needing more jumps than the per-path buffer holds
    monkeypatch.setattr(estimator, "_PATH_CAP", 8)
    with pytest.raises(NumericalError, match="^path b: completion exceeded 8 jumps$"):
        sem_iteration(data, pi, flips, None, cfg, RandomStream(1), 2)
    # so does initialization, where b is the only absorbed path
    data = _panel(2, [("a", [0, 1], [2, 2]), ("b", [0, 1, 2], [2, 1, 3])])
    with pytest.raises(NumericalError, match="^path b: completion exceeded 8 jumps$"):
        estimator._init_absorption_times(estimator._PanelArrays(data), flips, RandomStream(1))
    # a censored path running into a state without exit, past the
    # reachability check
    monkeypatch.setattr(estimator, "_PATH_CAP", 1 << 16)
    monkeypatch.setattr(estimator, "check_absorbable", lambda lam, states: None)
    trap = SubIntensityMatrix(np.array([[-1.0, 0.5], [0.0, 0.0]]))
    data = _panel(2, [("a", [0, 1], [1, 3]), ("b", [0, 1], [1, 1])])
    with pytest.raises(
        StructuralError, match="^iteration 3: path b: dead-end state 1 cannot reach absorption$"
    ):
        for seed in range(50):  # until path b jumps to state 2 before absorbing
            with contextlib.suppress(StarvedStateError):  # absorbed from state 1
                sem_iteration(data, pi, trap, None, cfg, RandomStream(seed), 3)


def test_sem_iteration_near_fixed_point(weibull_pi, weibull_lam):
    fam = ScalingFamily(WEIBULL, 3.0)
    data = make_panel(weibull_pi, weibull_lam, fam, 5.0, 0.1, 400, 82)
    step = sem_iteration(
        data, weibull_pi, weibull_lam, 3.0, WEIBULL_CFG, RandomStream(82), 1
    )
    assert validate_generator(step.lam_hat).ok
    assert abs(step.lam_hat.entries[0, 0] + 3.0) <= 0.6
    assert abs(step.lam_hat.entries[0, 1] - 0.1) <= 0.08
    assert abs(step.lam_hat.entries[1, 0] - 0.01) <= 0.05
    assert abs(step.beta_hat - 3.0) <= 0.5
    assert step.absorption_times.size == len(data)
    assert step.gd_updates >= 1


def test_sem_iteration_requires_beta_outside_homogeneous_mode(
    weibull_pi, weibull_lam
):
    data = _panel(2, [("a", [0.0, 1.0], [1, 3])])
    with pytest.raises(ValidationError):
        sem_iteration(
            data, weibull_pi, weibull_lam, None, WEIBULL_CFG, RandomStream(0), 1
        )


# ---------------------------------------------------------------------------
# full fit


@pytest.fixture(scope="module")
def small_gompertz_fit(gompertz_pi, gompertz_lam):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    data = make_panel(gompertz_pi, gompertz_lam, fam, 30.0, 1.0, 80, 83)
    result = fit(data, GOMPERTZ_CFG, RandomStream(83))
    return data, result


def test_fit_outcome_shape(small_gompertz_fit):
    data, result = small_gompertz_fit
    assert result.termination in ("single-update-converged", "max-iterations")
    assert result.iterations_used == len(result.trace)
    assert result.beta_hat is not None and result.beta_hat > 0
    assert result.lam_hat.entries.shape == (3, 3)
    assert result.completed is None


def test_fit_trace_invariants(small_gompertz_fit):
    data, result = small_gompertz_fit
    absorbed = data.absorbed_count()
    for rec in result.trace:
        assert validate_generator(rec.lam_hat).ok
        assert rec.beta_hat >= GOMPERTZ_CFG.beta_min
        assert rec.absorbed_paths == absorbed
        assert rec.gd_updates >= 1
    assert [rec.iteration for rec in result.trace] == list(
        range(1, len(result.trace) + 1)
    )
    if result.termination == "single-update-converged":
        assert result.trace[-1].gd_updates == 1
        assert all(rec.gd_updates > 1 for rec in result.trace[:-1])


def test_fit_trace_carries_each_sweeps_work(small_gompertz_fit):
    data, result = small_gompertz_fit
    censored = len(data) - data.absorbed_count()
    for rec in result.trace:
        assert isinstance(rec.work, estimator.SweepWork)
        assert rec.work.virtual_jumps > 0 and rec.work.series > 0
        assert rec.work.censored == censored
        assert rec.work.jumps_kept >= data.absorbed_count()


def test_sweep_maps_times_as_the_checked_calls(gompertz_pi, gompertz_lam):
    """A sweep maps the panel's distinct epochs and the imputed absorption
    epochs through the unchecked terms; the values are the checked public
    calls' bit for bit."""
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    panel = estimator._PanelArrays(make_panel(gompertz_pi, gompertz_lam, fam, 30.0, 0.7, 40, 85))
    assert panel.epochs.size < panel.flat_times.size
    for family in (fam, ScalingFamily(WEIBULL, 3.0), ScalingFamily(WEIBULL, 0.7),
                   ScalingFamily("identity")):
        (mapped,) = family._terms(panel.epochs, g_inv_only=True)
        want = np.asarray(family.g_inv(panel.flat_times), dtype=float)
        assert mapped[panel.epoch_index].tobytes() == want.tobytes()
        assert family._g(want).tobytes() == np.asarray(family.g(want), dtype=float).tobytes()


def test_fit_is_bitwise_reproducible(gompertz_pi, gompertz_lam):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    data = make_panel(gompertz_pi, gompertz_lam, fam, 25.0, 1.0, 50, 84)
    cfg = GOMPERTZ_CFG
    a = fit(data, cfg, RandomStream(7))
    b = fit(data, cfg, RandomStream(7))
    assert a.beta_hat == b.beta_hat
    assert np.array_equal(a.lam_hat.entries, b.lam_hat.entries)
    assert a.iterations_used == b.iterations_used
    assert a.termination == b.termination
    for ra, rb in zip(a.trace, b.trace):
        assert ra.beta_hat == rb.beta_hat
        assert np.array_equal(ra.lam_hat.entries, rb.lam_hat.entries)


def test_fit_seed_comes_from_config_when_rng_omitted(gompertz_pi, gompertz_lam):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    data = make_panel(gompertz_pi, gompertz_lam, fam, 25.0, 1.0, 50, 85)
    cfg = FitConfig(family=GOMPERTZ, beta0=1.0, eta=1e-6, e_ell=0.01, seed=9)
    a = fit(data, cfg)
    b = fit(data, cfg, RandomStream(9))
    assert a.beta_hat == b.beta_hat
    assert np.array_equal(a.lam_hat.entries, b.lam_hat.entries)


@pytest.fixture(scope="module")
def instrumented_fit(gompertz_pi, gompertz_lam):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    data = make_panel(gompertz_pi, gompertz_lam, fam, 30.0, 1.0, 80, 86)
    rows: list = []
    result = fit(
        data, GOMPERTZ_CFG, RandomStream(86), beta_trace=rows, keep_completed=True
    )
    return data, result, rows


def test_fit_keep_completed_returns_paths(instrumented_fit):
    data, result, _ = instrumented_fit
    assert result.completed is not None
    assert len(result.completed) == len(data)
    for p in result.completed:
        assert p.timeline == "homogeneous"


def test_fit_beta_trace_collects_ascent_rows(instrumented_fit):
    _, result, rows = instrumented_fit
    assert len(rows) >= result.iterations_used
    for step, beta, ell, grad in rows:
        assert step >= 1
        assert beta >= GOMPERTZ_CFG.beta_min
        assert np.isfinite(grad) or ell == -np.inf


# ---------------------------------------------------------------------------
# homogeneous variant


def test_fit_identity_family_is_the_homogeneous_fit(monkeypatch):
    """The identity family alone selects the homogeneous fit: with the
    default settings it runs homog_iterations sweeps and reports no beta."""
    sweeps = []
    step = estimator.sem_iteration

    def counted(*args, **kwargs):
        sweeps.append(args[6])
        return step(*args, **kwargs)

    monkeypatch.setattr(estimator, "sem_iteration", counted)
    lam = SubIntensityMatrix(np.array([[-0.8, 0.3], [0.2, -0.6]]))
    pi = InitialDistribution(np.array([0.6, 0.4]))
    data = make_panel(pi, lam, ScalingFamily("identity"), 8.0, 0.5, 20, 86)
    cfg = FitConfig(family=IDENTITY)
    result = fit(data, cfg, RandomStream(86))
    assert sweeps == list(range(1, cfg.homog_iterations + 1))
    assert result.beta_hat is None
    assert result.iterations_used == len(result.trace) == cfg.homog_iterations
    assert result.termination == "max-iterations"
    assert all(rec.beta_hat is None and rec.gd_updates == 0 for rec in result.trace)


def test_fit_homogeneous_consistency():
    lam = SubIntensityMatrix(np.array([[-0.8, 0.3], [0.2, -0.6]]))
    pi = InitialDistribution(np.array([0.6, 0.4]))
    data = make_panel(pi, lam, ScalingFamily("identity"), 8.0, 0.5, 300, 87)
    cfg = FitConfig(family=IDENTITY, homog_iterations=60, homog_tail_average=10)
    result = fit(data, cfg, RandomStream(87))
    assert result.beta_hat is None
    assert result.iterations_used == 60
    assert len(result.trace) == 60
    assert validate_generator(result.lam_hat).ok
    assert np.max(np.abs(result.lam_hat.entries - lam.entries)) <= 0.15


def test_fit_homogeneous_single_sweep_equals_iteration():
    lam = SubIntensityMatrix(np.array([[-0.8, 0.3], [0.2, -0.6]]))
    pi = InitialDistribution(np.array([0.6, 0.4]))
    data = make_panel(pi, lam, ScalingFamily("identity"), 8.0, 0.5, 60, 88)
    cfg = FitConfig(family=IDENTITY, homog_iterations=1, homog_tail_average=1)
    result = fit(data, cfg, RandomStream(88))
    rng = RandomStream(88)
    pi0, lam0, _ = initialize(data, cfg, rng)
    step = sem_iteration(data, pi0, lam0, None, cfg, rng, 1)
    np.testing.assert_allclose(
        result.lam_hat.entries, step.lam_hat.entries, atol=1e-12
    )


# ---------------------------------------------------------------------------
# configuration validation


def test_fit_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(family="loglogistic")
    with pytest.raises(ValidationError):
        FitConfig(family=GOMPERTZ, eta=0.0)
    with pytest.raises(ValidationError):
        FitConfig(family=GOMPERTZ, e_ell=-0.1)
    with pytest.raises(ValidationError):
        FitConfig(family=GOMPERTZ, beta0=1e-6)  # below beta_min
    with pytest.raises(ValidationError):
        FitConfig(family=GOMPERTZ, max_sem_iterations=0)
    with pytest.raises(ValidationError):
        FitConfig(family=IDENTITY, homog_tail_average=0)
    with pytest.raises(ValidationError):
        FitConfig(family=IDENTITY, homog_iterations=5, homog_tail_average=6)
    with pytest.raises(ValidationError):
        FitConfig(family=GOMPERTZ, seed=-1)

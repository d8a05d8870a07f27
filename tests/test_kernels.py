"""The jump-chain kernels.

The per-path Python functions (``sim_path`` and the rejection references
``bridge_attempts`` and ``complete_panel_path``) must end in each of their
statuses.  Each compiled sweep must give the same result as its
``py_func``, and a CLI run must write the same bytes either way.  The
SE-step sweep must seed each path's stream as ``RandomStream.generator()``
does and give the statistics, paths and counters of a per-path loop over
the exact sampler (``conftest.exact_path``); the simulation sweep must
give the paths of a per-path loop over ``sim_path``.  The build tests
check the C backend's compile-once cache and its fallback to the Python
bodies.
"""

import os
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

import _cli
from iphfit import (
    ContinuousPath,
    RandomStream,
    ScalingFamily,
    StructuralError,
    SubIntensityMatrix,
    _kernels,
)
from iphfit import estimator
from iphfit.cli import main
from iphfit.likelihood import accumulate_statistics
from iphfit.paths import HOMOGENEOUS
from iphfit.simulate import bridge_model, jump_model
from iphfit.studies import cohort_panel, fitted_absorption_sample, simulate_cohort, uniform_grid

from conftest import GOMPERTZ_BETA, GOMPERTZ_LAM, GOMPERTZ_PI, exact_path

KERNELS = ("complete_sweep", "simulate_sweep")

compiled = pytest.mark.skipif(
    _kernels.BACKEND == "pure-python", reason="the C kernels did not build or load"
)


def _model(rates):
    """(cum, total) from an (n, n + 1) table of off-diagonal and exit rates."""
    cum = np.cumsum(np.asarray(rates, dtype=float), axis=1)
    return cum, cum[:, -1].copy()


def _gompertz_model():
    lam = np.array(GOMPERTZ_LAM)
    rates = np.column_stack([np.where(np.eye(3, dtype=bool), 0.0, lam), -lam.sum(axis=1)])
    return _model(rates)


GOMPERTZ = _gompertz_model()
# state 1 (0-based) has no exit rate: a dead end for a censored path
DEAD_END = _model([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
SINGLE = _model([[0.0, 1.0]])


def _run(name, seed, *args, cap=256):
    """Call the per-path function on a fresh generator and buffers; return
    the result with the buffers."""
    gen = np.random.Generator(np.random.PCG64(seed))
    times = np.full(cap, -1.0)
    states = np.full(cap, -7, dtype=np.int64)
    return getattr(_kernels, name)(gen, *args, times, states), times, states


@compiled
@pytest.mark.parametrize("name", KERNELS)
def test_compiled_kernels_expose_python_bodies(name):
    kernel = getattr(_kernels, name)
    assert kernel is not kernel.py_func
    assert kernel.py_func.__name__ == name
    assert kernel.__doc__ == kernel.py_func.__doc__


def test_sim_path_statuses():
    cum, total = GOMPERTZ
    statuses = set()
    for seed in range(300):
        state = seed % 3
        horizon = [np.inf, 5.0, 40.0][seed % 3]
        cap = [256, 2][seed % 2]
        result, _, _ = _run("sim_path", seed, state, 0.5, horizon, cum, total, 3, cap=cap)
        statuses.add(result[0])
    assert statuses == {0, 1, 2}  # buffer full, absorbed, horizon reached
    # a state without exit rate ends the path at the horizon
    cum, total = DEAD_END
    assert _run("sim_path", 1, 1, 0.0, 9.0, cum, total, 2)[0] == (2, 0, 1, 9.0)


def test_bridge_attempts_statuses():
    cum, total = GOMPERTZ
    statuses = set()
    for seed in range(200):
        x, y = seed % 3, (seed // 3) % 4
        duration = [0.3, 2.0, 15.0][seed % 3]
        result, _, _ = _run("bridge_attempts", seed, x, y, duration, cum, total, 3, 40)
        statuses.add(result[0])
    assert statuses == {0, 1}
    # overflow within an attempt
    assert _run("bridge_attempts", 5, 0, 0, 500.0, cum, total, 3, 50, cap=3)[0][0] == 2
    # an accepted bridge without jumps
    assert _run("bridge_attempts", 6, 1, 1, 1e-6, cum, total, 3, 10)[0] == (0, 1, 0)
    # a budget below one attempt
    cum, total = SINGLE
    assert _run("bridge_attempts", 7, 0, 1, 1.0, cum, total, 1, 0)[0] == (1, 0, 0)


def _panel_path(gen, n_obs, absorbed):
    """Random increasing observation epochs and states for the 3-state model."""
    obs_s = np.cumsum(np.concatenate(([0.0], gen.uniform(0.2, 3.0, n_obs - 1))))
    obs_x = gen.integers(0, 3, n_obs).astype(np.int64)
    if absorbed:
        obs_x[-1] = 3
    return obs_s, obs_x


def test_complete_panel_path_statuses():
    cum, total = GOMPERTZ
    gen = np.random.Generator(np.random.PCG64(12))
    statuses = set()
    for seed in range(300):
        obs_s, obs_x = _panel_path(gen, 1 + seed % 4, absorbed=seed % 2 == 1 and seed % 4 > 0)
        result, times, states = _run("complete_panel_path", seed, obs_s, obs_x, cum, total, 3, 200)
        statuses.add(result[0])
        if result[0] == 0:
            count = result[2]
            assert states[count - 1] == 3 and times[count - 1] == result[3]
    assert statuses == {0, 1}  # accepted and budget exhausted
    # buffer overflow with a small buffer, in a bridge and while censored
    obs_s, obs_x = np.array([0.0, 30.0]), np.array([0, 3])
    assert _run("complete_panel_path", 3, obs_s, obs_x, cum, total, 3, 99, cap=2)[0][0] == 2
    obs_s, obs_x = np.array([0.0]), np.array([1])
    assert _run("complete_panel_path", 3, obs_s, obs_x, cum, total, 3, 99, cap=2)[0][0] == 2
    # a lone censored observation: the chain runs on to absorption
    assert _run("complete_panel_path", 4, obs_s, obs_x, cum, total, 3, 99)[0][:2] == (0, 0)
    # dead end during the censored continuation
    cum, total = DEAD_END
    obs_s, obs_x = np.array([0.0, 2.0]), np.array([0, 1])
    assert _run("complete_panel_path", 8, obs_s, obs_x, cum, total, 2, 500)[0][0] == 3


# ---------------------------------------------------------------------------
# the SE-step sweep


@pytest.fixture(scope="module")
def ckernels():
    """The compiled module, for its stream check."""
    if _kernels.BACKEND != "c":
        pytest.skip("the C kernels are not in use")
    return _kernels._load_c("cc", os.path.join(os.path.dirname(_kernels.__file__), "__pycache__"))


def test_stream_words_match_seed_sequence():
    for ints in [(0,), (1, 0, 0), (2**32 - 1,), (2**32,), (2**64 + 5, 7), (5, 2**40, 0, 3)]:
        ours = np.random.SeedSequence(_kernels.stream_words(*ints)).generate_state(8)
        assert ours.tolist() == np.random.SeedSequence(list(ints)).generate_state(8).tolist()
    assert _kernels.stream_words(0, 2**32 + 3).tolist() == [0, 3, 1]
    with pytest.raises(ValueError):
        _kernels.stream_words(-1)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
def test_sweep_streams_match_random_stream(ckernels, seed):
    """Entropy shorter and longer than SeedSequence's 4-word pool."""
    keys = [(), (0,), (3, 0), (1, 2, 0), (0, 0, 0, 0), (1, 4, 17, 0, 1), (2**33, 0, 5, 1, 0, 9)]
    for key in keys:
        draws = ckernels.stream_draws(_kernels.stream_words(seed, *key), 101)
        gen = RandomStream(seed, key).generator()
        bits = gen.bit_generator
        assert np.array_equal(draws[0], bits.random_raw(101))
        u32 = [bits.ctypes.next_uint32(bits.ctypes.state) for _ in range(101)]
        assert draws[1].tolist() == u32
        assert np.array_equal(draws[2], gen.exponential(size=101))
        assert np.array_equal(draws[3], gen.random(101))
        state = bits.state
        assert draws[4] == (
            state["state"]["state"], state["state"]["inc"], state["has_uint32"], state["uinteger"]
        )


def _study_panel(count, horizon, seed):
    """A Gompertz panel with absorbed and censored paths."""
    family = ScalingFamily.gompertz(GOMPERTZ_BETA)
    stream = RandomStream(seed)
    cohort = simulate_cohort(GOMPERTZ_PI, SubIntensityMatrix(GOMPERTZ_LAM), family, horizon,
                             count, stream)
    return family, estimator._PanelArrays(cohort_panel(cohort, uniform_grid(horizon, 1.0)))


def _reference_sweep(panel, lam, family, replications, rng, iteration):
    """The per-path SE-step: for each path, its stream's generator, the
    checked ``g_inv`` of its own times, ``exact_path``, a ContinuousPath,
    and ``accumulate_statistics`` over them.  Also returns every bridge's
    virtual-jump count, and the numbers of distinct (interval, state pair)
    segments of the panel: all of them, and those whose normalizer a sweep
    computes before any draw (all but x to x with ``mu * delta < 1``)."""
    mu = bridge_model(lam)[2]
    completed, counts = [], []
    for rep in range(replications):
        for k in range(panel.K):
            key = (iteration, int(panel.keys[k])) + ((rep,) if replications > 1 else ())
            obs_s = np.asarray(family.g_inv(panel.times[k]), dtype=float)
            times, states, r = exact_path(lam, obs_s, panel.states0[k],
                                          rng.substream(*key).generator())
            counts += r
            completed.append(ContinuousPath(n=panel.n, times=times, states=states + 1,
                                            end_time=float(times[-1]), timeline=HOMOGENEOUS))
    segments = {
        (t[i], t[i + 1], x[i], x[i + 1],
         x[i] != x[i + 1] or mu * float(family.g_inv(t[i + 1]) - family.g_inv(t[i])) >= 1.0)
        for t, x in zip(panel.times, panel.states0) for i in range(len(t) - 1)
    }
    eager = sum(segment[-1] for segment in segments)
    return accumulate_statistics(completed, panel.n), completed, counts, (len(segments), eager)


def _stats_bytes(stats):
    return [np.asarray(a).tobytes() for a in (
        stats.start_counts, stats.jump_counts, stats.absorption_counts, stats.occupation
    )]


@pytest.mark.parametrize("replications", [1, 2])
def test_sweep_matches_per_path_loop(monkeypatch, replications):
    family, panel = _study_panel(60, 8.0, 41)
    assert 0 < panel.absorbed.sum() < panel.K  # absorbed and censored paths
    # stream keys other than the path index, one of them two words long
    panel.keys = np.arange(9 * panel.K, 0, -9, dtype=np.int64) - 1
    panel.keys[:4] = [3, 0, 7, 2**32 + 5]
    lam = SubIntensityMatrix(GOMPERTZ_LAM)
    cfg = estimator.FitConfig(family="gompertz", bridge_replications=replications)
    rng = RandomStream(2**32 + 1, (1, 3))  # a study fit's key prefix
    stats, paths, counts, (groups, eager) = _reference_sweep(
        panel, lam, family, replications, rng, 6
    )
    assert eager < groups < panel.flat_times.size - panel.K  # paths share bridge groups
    assert max(counts) > 1 and counts.count(0) > 0
    works = []
    bodies = [_kernels.complete_sweep, getattr(_kernels.complete_sweep, "py_func", None)]
    for body in bodies:
        if body is None:
            continue
        monkeypatch.setattr(_kernels, "complete_sweep", body)
        got, flat, work = estimator._complete_all(panel, lam, family, cfg, rng, 6)
        assert _stats_bytes(got) == _stats_bytes(stats)
        assert len(paths) == panel.K * replications
        assert flat.end_times.tolist() == [p.end_time for p in paths]
        assert flat.times.tobytes() == np.concatenate([p.times for p in paths]).tobytes()
        assert (flat.states + 1).tolist() == np.concatenate([p.states for p in paths]).tolist()
        assert flat.bounds.tolist() == np.cumsum([0] + [p.times.size for p in paths]).tolist()
        assert work.virtual_jumps == sum(counts)
        assert work.jumps_kept == sum(p.times.size - 1 for p in paths)
        assert work.censored == replications * int((~panel.absorbed).sum())
        assert eager <= work.series <= groups
        works.append(work)
    assert all(work == works[0] for work in works)


@compiled
def test_sweep_overflows_where_python_body_does():
    """Per-path buffers of 0 to 127 jumps: the same path overflows, with
    the same counters, or every path fits."""
    family, panel = _study_panel(30, 10.0, 5)
    cum, total, mu, ptrans = bridge_model(SubIntensityMatrix(GOMPERTZ_LAM))
    obs_s = np.asarray(family.g_inv(panel.flat_times), dtype=float)
    args = (_kernels.stream_words(4, 1, 2), 3, 2, panel.keys, obs_s, panel.flat_states0,
            panel.starts, panel.groups, cum, total, 3, mu, ptrans, 1 << 16)
    statuses = set()
    for cap in range(128):
        got = _kernels.complete_sweep(*args, cap)
        want = _kernels.complete_sweep.py_func(*args, cap)
        assert got[:4] == want[:4]
        statuses.add(got[0])
        if got[0] == 0:
            for a, b in zip(got[4] + got[5], want[4] + want[5]):
                assert a.tobytes() == b.tobytes()
    assert statuses == {0, 2}


@compiled
def test_sweep_hands_other_inputs_to_python_body():
    """Other dtypes or layouts, a key vector longer than the panel, an
    offset vector past it or an int mu run the Python body; so does a
    negative key, which the Python body refuses."""
    family, panel = _study_panel(5, 10.0, 3)
    cum, total, mu, ptrans = bridge_model(SubIntensityMatrix(GOMPERTZ_LAM))
    obs_s = np.asarray(family.g_inv(panel.flat_times), dtype=float)
    words = _kernels.stream_words(9)
    keys, groups = panel.keys, panel.groups
    past = panel.starts.copy()
    past[-1] += 1
    strided = np.repeat(groups, 2)[::2]
    for args in [
        (words.astype(np.int64), keys, panel.flat_states0, panel.starts, groups, mu),
        (words, keys.astype(np.int32), panel.flat_states0, panel.starts, groups, mu),
        (words, np.append(keys, 9), panel.flat_states0, panel.starts, groups, mu),
        (words, keys, panel.flat_states0.astype(np.int32), panel.starts, groups, mu),
        (words, keys, panel.flat_states0, past, groups, mu),
        (words, keys, panel.flat_states0, panel.starts, groups.astype(np.int32), mu),
        (words, keys, panel.flat_states0, panel.starts, strided, mu),
        (words, keys, panel.flat_states0, panel.starts, groups, 1),
    ]:
        w, k, x, st, g, m = args
        rest = (cum, total, 3, m, ptrans, 1 << 16, 64)
        got = _kernels.complete_sweep(w, 1, 1, k, obs_s, x, st, g, *rest)
        want = _kernels.complete_sweep.py_func(w, 1, 1, k, obs_s, x, st, g, *rest)
        assert got[:4] == want[:4] and got[0] == 0
        for a, b in zip(got[4] + got[5], want[4] + want[5]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    negative = keys.copy()
    negative[2] = -1
    rest = (cum, total, 3, mu, ptrans, 1 << 16, 64)
    for body in (_kernels.complete_sweep, _kernels.complete_sweep.py_func):
        with pytest.raises(ValueError, match="^stream keys must be non-negative$"):
            body(words, 1, 1, negative, obs_s, panel.flat_states0, panel.starts, groups, *rest)


# ---------------------------------------------------------------------------
# the simulation sweep

# two states that swap at rate 1 and rarely leave: paths of hundreds of jumps
SWAPPING = _model([[0.0, 1.0, 0.001], [1.0, 0.0, 0.001]])
# the first uniform of path 0's stream under seed 5
U5 = RandomStream(5, (0,)).generator().random()


def _reference_paths(seed, prefix, keys, cum_pi, cum, total, n, horizon):
    """Path by path, each on its own generator: the generator of
    RandomStream(seed, (*prefix, k)), the initial state by searchsorted,
    then sim_path's Python body in buffers of 16 jumps."""
    sim_path = _kernels.sim_path
    paths = []
    for k in keys:
        gen = RandomStream(seed, (*prefix, int(k))).generator()
        state = min(int(np.searchsorted(cum_pi, gen.random(), side="right")), n - 1)
        times, states, t, status = [0.0], [state], 0.0, 0
        while status == 0:
            tbuf, sbuf = np.empty(16), np.empty(16, dtype=np.int64)
            status, count, state, t = sim_path(gen, state, t, horizon, cum, total, n, tbuf, sbuf)
            times += tbuf[:count].tolist()
            states += sbuf[:count].tolist()
        paths.append((np.array(times), states, t))
    return paths


SIMULATION_CASES = [
    # (model, pi, horizon, seed, prefix, count)
    (GOMPERTZ, GOMPERTZ_PI, np.inf, 2**32, (), 300),
    (GOMPERTZ, GOMPERTZ_PI, 30.0, 2**64 + 5, (2, 1), 300),
    (GOMPERTZ, GOMPERTZ_PI, 0.0, 2**32, (2, 3), 50),
    (GOMPERTZ, [0.0, 0.3, 0.7], 12.0, 7, (), 200),
    (GOMPERTZ, [U5, 0.0, 1.0 - U5], 12.0, 5, (), 1),  # u equal to two cum_pi entries
    (GOMPERTZ, [0.1, 0.1, 0.3], 12.0, 8, (), 100),  # summing to 0.5: the last state takes the rest
    (GOMPERTZ, [0.0, 0.0, 1.0], np.inf, 2**64 + 5, (2, 0), 100),
    (SINGLE, [1.0], np.inf, 3, (), 50),
    (SINGLE, [1.0], 0.7, 3, (2, 5), 50),
    (DEAD_END, [0.4, 0.6], 5.0, 11, (), 100),  # state 1 sits there to the horizon
    (SWAPPING, [1.0, 0.0], 400.0, 2**32, (2, 9), 3),  # outgrows the first buffer
    (GOMPERTZ, GOMPERTZ_PI, np.inf, 1, (), 0),
    (GOMPERTZ, GOMPERTZ_PI, np.inf, 99, (), 3000),  # about 10^5 draws
]


@pytest.mark.parametrize("case", range(len(SIMULATION_CASES)))
def test_simulate_sweep_matches_per_path_loop(case):
    (cum, total), pi, horizon, seed, prefix, count = SIMULATION_CASES[case]
    n = total.size
    cum_pi = np.cumsum(pi)
    keys = np.arange(count, dtype=np.int64)
    args = (_kernels.stream_words(seed, *prefix), keys, cum_pi, cum, total, n, horizon)
    kernel = _kernels.simulate_sweep
    got = kernel(*args)
    if hasattr(kernel, "py_func"):
        for a, b in zip(got, kernel.py_func(*args)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    times, states, bounds, ends = got
    assert bounds.tolist()[:1] == [0] and bounds.size == count + 1
    want = _reference_paths(seed, prefix, keys, cum_pi, cum, total, n, horizon)
    for k, (t, x, end) in enumerate(want):
        a, b = bounds[k], bounds[k + 1]
        assert times[a:b].tobytes() == t.tobytes()
        assert states[a:b].tolist() == x
        assert ends[k] == end
    if SIMULATION_CASES[case][0] is SWAPPING:
        assert times.size > 4 * count + 64
    if case == 4:
        assert states[0] == 2
    if count == 3000:
        assert times.size - count > 30_000


@pytest.mark.parametrize("horizon", [np.inf, 60.0, 0.0])
def test_cohort_matches_simulate_inhomogeneous(horizon):
    """The cohort's paths, mapped through g in one call, equal the
    per-path route's: a generator and sim_path's Python body per path,
    then g over the path's own jump epochs."""
    lam = SubIntensityMatrix(GOMPERTZ_LAM)
    family = ScalingFamily.gompertz(GOMPERTZ_BETA)
    cum, total = jump_model(lam)
    hom = horizon if horizon in (0.0, np.inf) else float(family.g_inv(horizon))
    cohort = simulate_cohort(GOMPERTZ_PI, lam, family, horizon, 200, RandomStream(205), (2, 1))
    want = _reference_paths(205, (2, 1), range(200), np.cumsum(GOMPERTZ_PI), cum, total, 3, hom)
    assert len(cohort) == 200
    for k, (t, x, end) in enumerate(want):
        path = cohort[k]
        assert path.times.tobytes() == np.concatenate(([0.0], family.g(t[1:]))).tobytes()
        assert path.states.tolist() == [v + 1 for v in x]
        assert path.end_time == (family.g(end) if path.absorbed else horizon)
    tail = cohort[150::7]
    assert [p.times.tobytes() for p in tail] == [cohort[k].times.tobytes() for k in range(150, 200, 7)]
    assert tail.end_times.tolist() == cohort.end_times[150::7].tolist()


def test_simulation_checks_absorbability_of_drawn_states():
    """An infinite horizon needs absorption reachable from every state a
    path starts in; a trapped state no path can start in is no error."""
    family = ScalingFamily.identity()
    # state 3 has no exit; state 2 leads to it, state 1 exits directly
    lam = SubIntensityMatrix(np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]]))
    stream = RandomStream(4)
    for pi in ([0.0, 0.0, 1.0], [0.9, 0.1, 0.0]):
        with pytest.raises(StructuralError, match="absorption is unreachable"):
            simulate_cohort(pi, lam, family, np.inf, 100, stream)
        with pytest.raises(StructuralError, match="absorption is unreachable"):
            fitted_absorption_sample(pi, lam, family, 100, stream, (2, 0))
        assert len(simulate_cohort(pi, lam, family, 9.0, 100, stream)) == 100
    sample = fitted_absorption_sample([1.0, 0.0, 0.0], lam, family, 100, stream, (2, 0))
    assert sample.size == 100 and np.all(sample > 0.0)


@compiled
def test_simulate_sweep_hands_other_inputs_to_python_body():
    """int32 keys, int64 words, an int horizon, a cum_pi of another length
    or a keyword argument run the Python body; so does a negative key,
    which it refuses."""
    cum, total = GOMPERTZ
    words = _kernels.stream_words(8, 2)
    keys = np.arange(40, dtype=np.int64)
    cum_pi = np.cumsum(GOMPERTZ_PI)
    kernel = _kernels.simulate_sweep
    for args in [
        (words, keys.astype(np.int32), cum_pi, 50.0),
        (words.astype(np.int64), keys, cum_pi, 50.0),
        (words, keys, cum_pi, 50),
        (words, keys, np.append(cum_pi, 1.0), 50.0),
    ]:
        w, k, c, h = args
        got, want = kernel(w, k, c, cum, total, 3, h), kernel.py_func(w, k, c, cum, total, 3, h)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    got = kernel(words, keys, cum_pi, cum, total, 3, horizon=50.0)
    for a, b in zip(got, kernel.py_func(words, keys, cum_pi, cum, total, 3, 50.0)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    negative = keys.copy()
    negative[5] = -1
    for body in (kernel, kernel.py_func):
        with pytest.raises(ValueError, match="^stream keys must be non-negative$"):
            body(words, negative, cum_pi, cum, total, 3, 50.0)


CLI_INI = """[model]
n = 3
family = gompertz
beta0 = 1.0
beta = 0.1019
pi = 0.0451, 0.1303, 0.8246
lambda = -0.1357, 0.1214, 0.0; 0.0130, -0.0421, 0.0288; 0.1415, 0.0184, -0.1620

[estimation]
eta = 1e-6
e_ell = 0.01
seed = 5

[study]
paths = 30
horizon = 25
delta = 1
"""


def _cli_run(root):
    root.mkdir()
    config = root / "run.ini"
    config.write_text(CLI_INI)
    panel = root / "panel.csv"
    fitdir = root / "fit"
    assert main(["simulate", "--config", str(config), "--out", str(panel)]) == 0
    assert main(
        ["fit", "--panel", str(panel), "--config", str(config), "--out", str(fitdir),
         "--dump-paths"]
    ) == 0
    assert main(
        ["gof", "--panel", str(panel), "--fit", str(fitdir), "--config", str(config),
         "--out", str(root / "gof.csv"), "--seed", "3"]
    ) == 0
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@compiled
def test_cli_bytes_match_python_bodies(tmp_path, monkeypatch):
    fast = _cli_run(tmp_path / "compiled")
    for name in KERNELS:
        monkeypatch.setattr(_kernels, name, getattr(_kernels, name).py_func)
    slow = _cli_run(tmp_path / "python")
    assert sorted(fast) == sorted(slow)
    assert len(fast) >= 5
    for name in fast:
        assert fast[name] == slow[name], name


# ---------------------------------------------------------------------------
# building the C backend


def test_build_without_compiler_falls_back(tmp_path):
    backend, kernels = _kernels.build(
        cc=str(tmp_path / "no-such-cc"), cache_dir=str(tmp_path / "cache")
    )
    assert backend == "pure-python"
    assert [k.__name__ for k in kernels] == list(KERNELS)
    for k in kernels:
        assert not hasattr(k, "py_func")  # the plain Python bodies
    assert not os.listdir(tmp_path / "cache")  # no temporary file left behind


@compiled
def test_build_compiles_once_into_its_cache(tmp_path):
    cache = tmp_path / "cache"
    backend, first = _kernels.build(cc="cc", cache_dir=str(cache))
    if backend == "pure-python":
        pytest.skip("the C kernels do not build here")
    assert [p.name.startswith("_ckernels.") for p in cache.iterdir()] == [True]  # no temporary
    # a warm cache needs no compiler
    backend, again = _kernels.build(cc=str(tmp_path / "no-such-cc"), cache_dir=str(cache))
    assert backend == "c" and len(list(cache.iterdir())) == 1
    assert [k.__name__ for k in again] == list(KERNELS)
    assert all(hasattr(k, "py_func") for k in first + again)
    cum, total = GOMPERTZ
    args = (_kernels.stream_words(1), np.arange(50, dtype=np.int64), np.cumsum(GOMPERTZ_PI),
            cum, total, 3, np.inf)
    results = [[a.tobytes() for a in sweep(*args)] for sweep in (first[1], again[1])]
    assert results[0] == results[1]


@compiled
def test_build_removes_libraries_of_other_keys(tmp_path):
    """A new build deletes the libraries other keys built for this
    interpreter, and keeps those of other interpreters and other files."""
    cache = tmp_path / "cache"
    cache.mkdir()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    stale = f"_ckernels.{'0' * 16}{suffix}"
    kept = [f"_ckernels.{'0' * 16}.cpython-39-other.so", "_ckernels.c", "notes.txt"]
    for name in [stale, *kept]:
        (cache / name).write_bytes(b"")
    backend, _sweeps = _kernels.build(cc="cc", cache_dir=str(cache))
    if backend == "pure-python":
        pytest.skip("the C kernels do not build here")
    names = sorted(p.name for p in cache.iterdir())
    built = [name for name in names if name.endswith(suffix) and name not in kept]
    assert stale not in names and len(built) == 1
    assert set(kept) <= set(names)


CHILD = """
import sys
import sysconfig
sys.path.insert(0, sys.argv[1])
import iphfit
from iphfit import _kernels
assert iphfit.__file__.startswith(sys.argv[1]), iphfit.__file__
leaked = sorted(m for m in ("setuptools", "cffi", "distutils") if m in sys.modules)
result = iphfit.run_study(iphfit.WEIBULL_STUDY, 0, paths=40)
print(_kernels.BACKEND, leaked, repr(result))
"""


@compiled
def test_cold_cache_import_from_two_processes(tmp_path):
    """Two interpreters import a fresh copy of the package at once: both
    build or load the same library, and neither imports a build tool."""
    package = os.path.dirname(os.path.abspath(_kernels.__file__))
    shutil.copytree(package, tmp_path / "iphfit", ignore=shutil.ignore_patterns("__pycache__"))
    env = _cli.env()
    env.pop("PYTHONPATH")
    children = [
        subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tmp_path)], env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outs = []
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].startswith(f"{_kernels.BACKEND} [] ")
    if _kernels.BACKEND == "c":  # one library, no temporary file left
        built = os.listdir(tmp_path / "iphfit" / "__pycache__")
        assert len([name for name in built if "ckernels" in name]) == 1


# njit(f) and njit(cache=True)(f) both give f back
NUMBA_STUB = """
def njit(*args, **kwargs):
    if args and callable(args[0]):
        return args[0]
    return lambda f: f
"""


def test_importable_numba_changes_nothing(tmp_path):
    """With a stub numba package importable, a fresh copy of the package
    picks the same backend and runs a study to the same result as
    without it."""
    package = os.path.dirname(os.path.abspath(_kernels.__file__))
    shutil.copytree(package, tmp_path / "iphfit", ignore=shutil.ignore_patterns("__pycache__"))
    stub = tmp_path / "stub" / "numba"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(NUMBA_STUB)
    env = _cli.env()
    env.pop("PYTHONPATH")
    outs = []
    for code, child_env in [(CHILD, env),
                            ("import numba\n" + CHILD, dict(env, PYTHONPATH=str(stub.parent)))]:
        child = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=child_env, cwd=tmp_path,
            capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        outs.append(child.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith(f"{_kernels.BACKEND} [] ")

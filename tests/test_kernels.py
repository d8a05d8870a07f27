"""The jump-chain kernels.

The per-path Python functions (``sim_path`` and the rejection references
``bridge_attempts`` and ``complete_panel_path``) must end in each of their
statuses.  Each compiled sweep must give the same result as its
``py_func``, and a CLI run must write the same bytes either way.  The
SE-step sweep must seed each path's stream as ``RandomStream.generator()``
does and give the statistics, paths and counters of a per-path loop over
the exact sampler (``conftest.exact_path``); the simulation sweep must
give the paths of a per-path loop over ``sim_path``.  The compiled SE-step
sweep must give the same bytes, counters and failure on any number of
threads.  The build tests
check the C backend's compile-once cache and its fallback to the Python
bodies.
"""

import dataclasses
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
from iphfit import estimator, studies
from iphfit.cli import main
from iphfit.likelihood import SufficientStatistics, accumulate_statistics
from iphfit.paths import HOMOGENEOUS
from iphfit.simulate import bridge_model, jump_model
from iphfit.studies import cohort_panel, fitted_absorption_sample, simulate_cohort, uniform_grid

from conftest import GOMPERTZ_BETA, GOMPERTZ_LAM, GOMPERTZ_PI, exact_path, panel_from_rows

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
    # however full the buffers are: it draws nothing
    assert _run("sim_path", 1, 1, 0.0, 9.0, cum, total, 2, cap=0)[0] == (2, 0, 1, 9.0)


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
    # an attempt that fills the buffers, then makes no jump before the
    # duration, is accepted; so it is when written after ``start``
    full, times, states = _run("bridge_attempts", 1, 1, 0, 15.0, cum, total, 3, 40, cap=2)
    assert full == (0, 2, 2) and states.tolist() == [2, 0]
    gen = np.random.Generator(np.random.PCG64(1))
    tail, tail_s = np.full(3, -1.0), np.full(3, -7, dtype=np.int64)
    got = _kernels.bridge_attempts(gen, 1, 0, 15.0, cum, total, 3, 40, tail, tail_s, 1)
    assert got == (0, 2, 3) and tail[1:].tobytes() == times.tobytes()
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
    # a bridge that fills the buffers and makes no further jump is
    # accepted: the overflow comes in the censored run after it
    edge_s, edge_x = np.array([1.5, 16.5]), np.array([1, 0])
    result, times, states = _run("complete_panel_path", 1, edge_s, edge_x, cum, total, 3, 40, cap=2)
    assert result == (2, 1, 0, 0.0, 2) and states.tolist() == [2, 0]
    bridge = _run("bridge_attempts", 1, 1, 0, 15.0, cum, total, 3, 40, cap=2)[1]
    assert times.tobytes() == (1.5 + bridge).tobytes()
    # a lone censored observation: the chain runs on to absorption
    assert _run("complete_panel_path", 4, obs_s, obs_x, cum, total, 3, 99)[0][:2] == (0, 0)
    # dead end during the censored continuation
    cum, total = DEAD_END
    obs_s, obs_x = np.array([0.0, 2.0]), np.array([0, 1])
    assert _run("complete_panel_path", 8, obs_s, obs_x, cum, total, 2, 500)[0][0] == 3
    # a dead end is no overflow, even with the buffers exactly full
    obs_s, obs_x = np.array([0.0]), np.array([1])
    for cap in (0, 1):
        assert _run("complete_panel_path", 8, obs_s, obs_x, cum, total, 2, 500, cap=cap)[0][0] == 3


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
    family = ScalingFamily("gompertz", GOMPERTZ_BETA)
    stream = RandomStream(seed)
    cohort = simulate_cohort(GOMPERTZ_PI, SubIntensityMatrix(GOMPERTZ_LAM), family, horizon,
                             count, stream)
    return family, estimator._PanelArrays(cohort_panel(cohort, uniform_grid(horizon, 1.0)))


def _reference_sweep(panel, lam, family, rng, iteration):
    """The per-path SE-step: for each path, its stream's generator, the
    checked ``g_inv`` of its own times, ``exact_path``, a ContinuousPath,
    and ``accumulate_statistics`` over them.  Also returns every bridge's
    virtual-jump count, and the numbers of distinct (interval, state pair)
    segments of the panel: all of them, and those whose normalizer a sweep
    always computes (all but x to x with ``mu * delta < 1``)."""
    mu = bridge_model(lam)[2]
    completed, counts = [], []
    for k in range(panel.K):
        obs_s = np.asarray(family.g_inv(panel.times[k]), dtype=float)
        times, states, r = exact_path(lam, obs_s, panel.states0[k],
                                      rng.substream(iteration, int(panel.keys[k])).generator())
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


def test_sweep_matches_per_path_loop(monkeypatch):
    family, panel = _study_panel(60, 8.0, 41)
    assert 0 < panel.absorbed.sum() < panel.K  # absorbed and censored paths
    # stream keys other than the path index, one of them two words long
    panel.keys = np.arange(9 * panel.K, 0, -9, dtype=np.int64) - 1
    panel.keys[:4] = [3, 0, 7, 2**32 + 5]
    lam = SubIntensityMatrix(GOMPERTZ_LAM)
    rng = RandomStream(2**32 + 1, (1, 3))  # a study fit's key prefix
    stats, paths, counts, (groups, eager) = _reference_sweep(panel, lam, family, rng, 6)
    assert eager < groups < panel.flat_times.size - panel.K  # paths share bridge groups
    assert max(counts) > 1 and counts.count(0) > 0
    works = []
    bodies = [_kernels.complete_sweep, getattr(_kernels.complete_sweep, "py_func", None)]
    for body in bodies:
        if body is None:
            continue
        monkeypatch.setattr(_kernels, "complete_sweep", body)
        got, flat, work = estimator._complete_all(panel, lam, family, rng, 6)
        assert _stats_bytes(SufficientStatistics(*got)) == _stats_bytes(stats)
        assert len(paths) == panel.K
        assert flat.end_times.tolist() == [p.end_time for p in paths]
        assert flat.times.tobytes() == np.concatenate([p.times for p in paths]).tobytes()
        assert (flat.states + 1).tolist() == np.concatenate([p.states for p in paths]).tolist()
        assert flat.bounds.tolist() == np.cumsum([0] + [p.times.size for p in paths]).tolist()
        assert work.virtual_jumps == sum(counts)
        assert work.jumps_kept == sum(p.times.size - 1 for p in paths)
        assert work.censored == int((~panel.absorbed).sum())
        assert eager <= work.series <= groups
        works.append(work)
    assert all(work == works[0] for work in works)


@compiled
def test_sweep_overflows_where_python_body_does():
    """Per-path buffers of 0 to 127 jumps: the same path overflows, or
    every path fits, with the same counters."""
    family, panel = _study_panel(30, 10.0, 5)
    cum, total, mu, ptrans = bridge_model(SubIntensityMatrix(GOMPERTZ_LAM))
    obs_s = np.asarray(family.g_inv(panel.flat_times), dtype=float)
    # iteration 2: its longest path has 79 jumps, so both statuses occur
    args = (_kernels.stream_words(4, 1, 2), 2, panel.keys, obs_s, panel.flat_states0,
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


def test_sweep_reports_a_dead_end_with_full_buffers():
    """A path observed once, in a state without exit rate: a dead end
    (status 3) whether or not its buffers have room for a jump."""
    cum, total = DEAD_END
    _cum, _total, mu, ptrans = bridge_model(SubIntensityMatrix([[-1.5, 1.0], [0.0, 0.0]]))
    args = (_kernels.stream_words(8), 0, np.array([0]), np.array([0.0]), np.array([1]),
            np.array([0, 1]), np.array([-1]), cum, total, 2, mu, ptrans, 1 << 16)
    for body in (_kernels.complete_sweep, getattr(_kernels.complete_sweep, "py_func", None)):
        if body is not None:
            assert [body(*args, cap)[:3] for cap in (0, 1, 5)] == [(3, 0, 0)] * 3


@compiled
def test_sweep_refuses_other_inputs():
    """Other dtypes or layouts, a key vector longer than the panel, an int
    mu or a negative cap raise TypeError on the compiled body; an offset
    vector past the panel, a state or a group out of range raise
    ValueError, and so does a negative key or iteration, with the Python
    body's message.  A missing argument raises TypeError on both bodies."""
    family, panel = _study_panel(5, 10.0, 3)
    cum, total, mu, ptrans = bridge_model(SubIntensityMatrix(GOMPERTZ_LAM))
    obs_s = np.asarray(family.g_inv(panel.flat_times), dtype=float)
    words = _kernels.stream_words(9)
    keys, x, starts, groups = panel.keys, panel.flat_states0, panel.starts, panel.groups
    past = starts.copy()
    past[-1] += 1
    wrong_state, wrong_group = x.copy(), groups.copy()
    wrong_state[0] = 3  # absorbed before the path's last observation
    wrong_group[0] = -1
    negative = keys.copy()
    negative[2] = -1

    def call(body=_kernels.complete_sweep, w=words, it=1, k=keys, xs=x, st=starts, g=groups,
             m=mu, cap=64):
        return body(w, it, k, obs_s, xs, st, g, cum, total, 3, m, ptrans, 1 << 16, cap)

    assert call()[0] == 0
    for bad in [{"w": words.astype(np.int64)}, {"k": keys.astype(np.int32)},
                {"k": np.append(keys, 9)}, {"xs": x.astype(np.int32)},
                {"g": groups.astype(np.int32)}, {"g": np.repeat(groups, 2)[::2]}, {"m": 1},
                {"cap": -1}]:
        with pytest.raises(TypeError, match="^the sweep does not take "):
            call(**bad)
    for bad in [{"st": past}, {"xs": wrong_state}, {"g": wrong_group}]:
        with pytest.raises(ValueError, match="^an observed state, bridge group or path offset"):
            call(**bad)
    for bad in [{"k": negative}, {"it": -1}]:
        with pytest.raises(ValueError, match="^stream keys must be non-negative$"):
            call(**bad)
    for body in (_kernels.complete_sweep, _kernels.complete_sweep.py_func):
        with pytest.raises(TypeError):
            body(words, 1, keys, obs_s, x, starts, groups, cum, total, 3, mu, ptrans, 1 << 16)
        with pytest.raises(ValueError, match="^stream keys must be non-negative$"):
            call(body, k=negative)


# ---------------------------------------------------------------------------
# the SE-step sweep on several workers: the compiled body completes a sweep
# of at least 128 paths on up to one worker per usable CPU, and no output
# byte, counter or failure may depend on how many

several = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda _pid: ())(0)) < 2,
    reason="one usable CPU: every sweep runs on one worker",
)


def _same(got, want):
    """Equal results of two ``complete_sweep`` calls, array bytes and
    dtypes included."""
    assert got[:4] == want[:4]
    if got[0] != 0:
        assert got[3:] == want[3:] == (None, None, None)
        return
    for a, b in zip(got[4] + got[5], want[4] + want[5]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _irregular_panel(count, seed):
    """A Gompertz panel shaped like the benchmark's irregular one: visits at
    uniform gaps of 0.5 to 1.5 until a drop-out time between 20 and 60,
    itself a visit; the first visit at or after absorption ends the path."""
    cohort = simulate_cohort(GOMPERTZ_PI, SubIntensityMatrix(GOMPERTZ_LAM),
                             ScalingFamily("gompertz", GOMPERTZ_BETA), np.inf, count,
                             RandomStream(seed))
    gen = np.random.default_rng(seed)
    rows = []
    for k in range(count):
        path, dropout = cohort[k], gen.uniform(20.0, 60.0)
        visits = [0.0]
        while (v := visits[-1] + gen.uniform(0.5, 1.5)) < dropout:
            visits.append(v)
        visits.append(dropout)
        seen = path.states[np.searchsorted(path.times, visits, side="right") - 1]
        stop = int(np.argmax(seen == 4)) + 1 if seen[-1] == 4 else len(visits)
        rows.append((f"c{k}", visits[:stop], seen[:stop]))
    return panel_from_rows(3, rows)


def _sweep_calls(monkeypatch):
    """The ``complete_sweep`` calls of two-iteration fits on 400 paths of
    each preset's first window (initialization's bridges and the SE-steps)
    and on an irregular panel."""
    calls = []
    sweep = _kernels.complete_sweep

    def record(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(_kernels, "complete_sweep", record)
    for preset in (studies.GOMPERTZ_STUDY, studies.WEIBULL_STUDY):
        family = ScalingFamily(preset.family, preset.beta)
        horizon = preset.horizons[0]
        cohort = simulate_cohort(preset.pi, preset.lam, family, horizon, 400, RandomStream(8))
        cfg = dataclasses.replace(preset.fit_config(8), max_sem_iterations=2)
        estimator.fit(cohort_panel(cohort, uniform_grid(horizon, preset.delta)), cfg)
    estimator.fit(_irregular_panel(400, 9), estimator.FitConfig(family="gompertz",
                                                                 max_sem_iterations=2))
    return calls


@compiled
@several
def test_sweep_bytes_do_not_depend_on_the_cpu_count(monkeypatch, ckernels):
    """Every sweep of the fits, run on one usable CPU and then on all of
    them: the same bytes and counters."""
    calls = _sweep_calls(monkeypatch)
    assert {args[1] == 0 for args in calls} == {True, False}
    assert min(args[2].size for args in calls) >= 128  # each runs on two workers or more
    every = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(every)})
        alone = [ckernels.complete_sweep(*args) for args in calls]
    finally:
        os.sched_setaffinity(0, every)
    for args, want in zip(calls, alone):
        assert want[0] == 0
        _same(ckernels.complete_sweep(*args), want)


@compiled
def test_sweep_repeats_its_bytes_with_shared_lazy_groups():
    """Twenty identical calls on a panel whose x-to-x groups with mu delta
    < 1 recur in many blocks of 32 paths, so that each worker computes
    their series in its own store: the same bytes every time."""
    family, panel = _study_panel(400, 60.0, 17)
    cum, total, mu, ptrans = bridge_model(SubIntensityMatrix(GOMPERTZ_LAM))
    obs_s = np.asarray(family.g_inv(panel.flat_times), dtype=float)
    x, groups = panel.flat_states0, panel.groups
    i = np.flatnonzero(groups >= 0)
    lazy = (x[i] == x[i + 1]) & (mu * (obs_s[i + 1] - obs_s[i]) < 1.0)
    block = (np.searchsorted(panel.starts, i[lazy], side="right") - 1) // 32
    blocks_per_group = [np.unique(block[groups[i[lazy]] == g]).size for g in set(groups[i[lazy]])]
    assert max(blocks_per_group) > 8
    args = (_kernels.stream_words(4, 2), 3, panel.keys, obs_s, x, panel.starts, groups, cum,
            total, 3, mu, ptrans, 1 << 16, 1 << 16)
    first = _kernels.complete_sweep(*args)
    assert first[0] == 0
    assert first[3][1] > np.unique(groups[i[~lazy]]).size  # lazy series were computed
    for _ in range(19):
        _same(_kernels.complete_sweep(*args), first)


# two transient states that swap, and a third without exit rate: a trap
TRAP = SubIntensityMatrix(np.array([[-1.0, 0.5, 0.0], [0.5, -1.0, 0.2], [0.0, 0.0, 0.0]]))


def _trap_sweep(special, late, cap=10):
    """The arguments of a ``complete_sweep`` call on 4,096 paths of TRAP,
    128 blocks of 32, with room for ``cap`` jumps per path.  Path k <
    ``late`` is observed at 0, 0.5 and 1.0 in states 0, 0 and absorbed,
    later ones at 0, 0.3 and 0.9, so each path's first segment is an
    x-to-x one with mu delta < 1 and the later paths have groups of their
    own, unless ``special[k]`` gives its epochs and states or names
    another shape: "swaps" (the first segment, then 21 swaps between 0 and
    1 at gaps of 0.5, then absorption: more jumps than 10), "dead end" (0,
    then the trap at 1.0, censored), "impossible" (the trap, then 0) or
    "far" (0, then absorbed after a gap past the virtual-jump cap).
    Segments with the same gap and endpoints share a group."""
    shapes = {
        "early": ([0.0, 0.5, 1.0], [0, 0, 3]),
        "late": ([0.0, 0.3, 0.9], [0, 0, 3]),
        "swaps": ([0.0, 0.5] + [1.0 + 0.5 * j for j in range(22)], [0, 0] + [1, 0] * 10 + [1, 3]),
        "dead end": ([0.0, 1.0], [0, 2]),
        "impossible": ([0.0, 1.0, 1.5], [2, 0, 3]),
        "far": ([0.0, 1e5], [0, 3]),
    }
    obs_s, obs_x, starts = [], [], [0]
    for k in range(4096):
        shape = special.get(k, "early" if k < late else "late")
        s, x = shapes[shape] if isinstance(shape, str) else shape
        obs_s += s
        obs_x += x
        starts.append(len(obs_s))
    obs_s, obs_x = np.array(obs_s), np.array(obs_x, dtype=np.int64)
    codes = {}
    groups = np.array([
        -1 if i + 1 in starts else codes.setdefault(
            (obs_s[i + 1] - obs_s[i], obs_x[i], obs_x[i + 1]), len(codes))
        for i in range(obs_s.size)
    ], dtype=np.int64)
    cum, total, mu, ptrans = bridge_model(TRAP)
    return (_kernels.stream_words(6), 1, np.arange(4096, dtype=np.int64), obs_s, obs_x,
            np.array(starts, dtype=np.int64), groups, cum, total, 3, mu, ptrans, 1 << 16, cap)


def _failure(special, late=4096, cap=10):
    """The sweep's (status, path, info), checked equal, with the counters
    of a completed sweep, on the Python body and on ten calls of the
    compiled body, whose blocks fall to the workers differently each
    time."""
    args = _trap_sweep(special, late, cap)
    want = _kernels.complete_sweep(*args)
    for _ in range(10 if hasattr(_kernels.complete_sweep, "py_func") else 0):
        _same(_kernels.complete_sweep(*args), want)
    if hasattr(_kernels.complete_sweep, "py_func"):
        _same(want, _kernels.complete_sweep.py_func(*args))
    return want[:3]


def test_sweep_failure_order_on_several_workers():
    """The first failing path in path order wins, however the blocks fall
    to the workers.  The cases sit in late blocks, which every worker has
    started by then, each failure where another worker is likely to pass
    it."""
    assert _failure({}) == (0, 0, 0)
    # an overflow in an early block comes before an impossible pair or a
    # gap past the virtual-jump cap in a late block, and each of those
    # fails alone
    assert _failure({10: "swaps", 3199: "impossible"}, late=3200) == (2, 10, 11)
    assert _failure({3199: "impossible"}, late=3200) == (1, 3199, 0)
    assert _failure({3115: "swaps", 3190: "far"})[:2] == (2, 3115)
    assert _failure({3190: "far"}) == (4, 3190, 0)
    # of two draw failures in different blocks, the earlier wins, even
    # when the later one, at the end of the next block, fails after it
    assert _failure({3115: "dead end", 3167: "swaps"}) == (3, 3115, 1)
    assert _failure({3115: "swaps", 3167: "dead end"})[:2] == (2, 3115)
    # an overflow at a path whose x-to-x group with mu delta < 1 the
    # blocks before and after it share, at the end of its block, with such
    # a group only the paths after it need
    assert _failure({3199: "swaps"}, late=3200)[:2] == (2, 3199)
    for path in (33, 1000, 3150):
        assert _failure({path: "swaps"})[:2] == (2, path)


# from path 2000 on, every 7th path ends with a gap longer than any before
# it, of 2 to 43.9, so that its normalizer needs more virtual jumps than
# any before it
LONG_GAPS = {k: ([0.0, 0.5, 0.5 + (k - 1900) / 50], [0, 0, 3]) for k in range(2000, 4096, 7)}


def test_sweep_grows_its_step_table_mid_sweep():
    """The step table grows as the late paths' longer gaps need more
    virtual jumps: the same bytes and counters on both bodies and however
    the blocks fall to the workers."""
    _cum, _total, mu, ptrans = bridge_model(TRAP)
    chain = _kernels._Chain(ptrans)
    hi = [_kernels._series(chain, mu * (s[2] - s[1]), x[1], x[2], 1 << 16)[1][3]
          for s, x in [([0.0, 0.5, 1.0], [0, 0, 3]), ([0.0, 0.3, 0.9], [0, 0, 3])]
          + list(LONG_GAPS.values())]
    assert max(hi[:2]) < hi[2] < hi[-1] and hi[2:] == sorted(hi[2:])
    assert _failure(LONG_GAPS, cap=64) == (0, 0, 0)


@compiled
@several
def test_grown_step_table_does_not_depend_on_the_cpu_count(ckernels):
    """Ten sweeps of ``test_sweep_grows_its_step_table_mid_sweep`` on one
    usable CPU and ten on all of them: the same bytes and counters."""
    args = _trap_sweep(LONG_GAPS, 4096, 64)
    want = _kernels.complete_sweep.py_func(*args)
    every = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(every)})
        alone = [ckernels.complete_sweep(*args) for _ in range(10)]
    finally:
        os.sched_setaffinity(0, every)
    for got in alone + [ckernels.complete_sweep(*args) for _ in range(10)]:
        _same(got, want)


def _on_every_body(args):
    """The Python body's result of ``complete_sweep(*args)``, checked equal
    to the compiled body's on all usable CPUs and on one."""
    want = getattr(_kernels.complete_sweep, "py_func", _kernels.complete_sweep)(*args)
    if hasattr(_kernels.complete_sweep, "py_func"):
        _same(_kernels.complete_sweep(*args), want)
        every = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(every)})
            alone = _kernels.complete_sweep(*args)
        finally:
            os.sched_setaffinity(0, every)
        _same(alone, want)
    return want


def test_bridge_reads_the_last_row_of_its_step_table():
    """A chain that moves one state up at a time, bridged from state 0 to
    state 2 over mu delta = 1e-20: the normalizer's only nonzero term is
    r = 2 = hi, so R = hi on every path and each bridge reads row hi - 1 of
    the step table, which a draw of R below hi never does."""
    lam = SubIntensityMatrix(np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]))
    cum, total, mu, ptrans = bridge_model(lam)
    delta = 1e-20 / mu
    chain = _kernels._Chain(ptrans)
    status, (sums, m, lo, hi) = _kernels._series(chain, mu * delta, 0, 2, 1 << 16)
    assert status == 0 and (m, lo, hi) == (0, 0, 2) and sums[:2] == [0.0, 0.0] < sums[2:]
    count = 200
    args = (_kernels.stream_words(9), 1, np.arange(count, dtype=np.int64),
            np.tile([0.0, delta], count), np.tile(np.array([0, 2], dtype=np.int64), count),
            np.arange(0, 2 * count + 1, 2, dtype=np.int64),
            np.tile(np.array([0, -1], dtype=np.int64), count), cum, total, 3, mu, ptrans,
            1 << 16, 1 << 16)
    status, _path, _info, (virtual, series), stats, _paths = _on_every_body(args)
    assert (status, virtual, series) == (0, 2 * count, 1)
    assert stats[1][0, 1] == stats[1][1, 2] == count  # both virtual jumps kept


@pytest.mark.parametrize("shape", ["gompertz", "irregular"])
def test_sweep_reads_group_ids_only_as_keys(shape):
    """A random bijection of a sweep's bridge group ids changes no byte and
    no counter, on either body and on any number of CPUs."""
    if shape == "gompertz":
        family, panel = _study_panel(300, 60.0, 23)
    else:
        family = ScalingFamily("gompertz", GOMPERTZ_BETA)
        panel = estimator._PanelArrays(_irregular_panel(150, 24))
    cum, total, mu, ptrans = bridge_model(SubIntensityMatrix(GOMPERTZ_LAM))
    obs_s = np.asarray(family.g_inv(panel.flat_times), dtype=float)
    groups = panel.groups
    shuffled = groups.copy()
    ids = groups >= 0
    shuffled[ids] = np.random.default_rng(25).permutation(groups.max() + 1)[groups[ids]]
    assert not np.array_equal(shuffled, groups)
    results = [
        _on_every_body((_kernels.stream_words(26), 2, panel.keys, obs_s, panel.flat_states0,
                        panel.starts, g, cum, total, 3, mu, ptrans, 1 << 16, 1 << 16))
        for g in (groups, shuffled)
    ]
    assert results[0][0] == 0
    _same(results[1], results[0])


@compiled
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_no_thread_outlives_a_sweep():
    """The workers a sweep starts are joined before it returns, whether it
    completes or fails."""
    family, panel = _study_panel(400, 60.0, 3)
    cum, total, mu, ptrans = bridge_model(SubIntensityMatrix(GOMPERTZ_LAM))
    obs_s = np.asarray(family.g_inv(panel.flat_times), dtype=float)
    args = (_kernels.stream_words(7), 2, panel.keys, obs_s, panel.flat_states0, panel.starts,
            panel.groups, cum, total, 3, mu, ptrans, 1 << 16)
    before = len(os.listdir("/proc/self/task"))
    for cap in (1 << 16, 2):
        assert _kernels.complete_sweep(*args, cap)[0] == (0 if cap > 2 else 2)
        assert len(os.listdir("/proc/self/task")) == before


@pytest.mark.parametrize("body", ["c", "c on one cpu", "python"])
def test_sweep_outputs_do_not_alias_a_later_call(body):
    """The arrays a ``complete_sweep`` and a ``simulate_sweep`` call return,
    statistics included, keep their bytes through a second call of each on
    other inputs, and hold ``bounds[-1]`` entries: no output shares memory
    that a later call writes."""
    if body != "python" and _kernels.BACKEND != "c":
        pytest.skip("the C kernels are not in use")
    complete, simulate = (k if body != "python" else getattr(k, "py_func", k)
                          for k in (_kernels.complete_sweep, _kernels.simulate_sweep))
    cum, total, mu, ptrans = bridge_model(SubIntensityMatrix(GOMPERTZ_LAM))

    def sweeps(count, seed):
        family, panel = _study_panel(count, 60.0, seed)
        obs_s = np.asarray(family.g_inv(panel.flat_times), dtype=float)
        status, *_, stats, paths = complete(
            _kernels.stream_words(seed), 2, panel.keys, obs_s, panel.flat_states0, panel.starts,
            panel.groups, cum, total, 3, mu, ptrans, 1 << 16, 1 << 16,
        )
        assert status == 0
        simulated = simulate(_kernels.stream_words(seed), np.arange(count, dtype=np.int64),
                             np.cumsum(GOMPERTZ_PI), *GOMPERTZ, 3, np.inf)
        return (*stats, *paths, *simulated)

    every = os.sched_getaffinity(0)
    try:
        if body == "c on one cpu":
            os.sched_setaffinity(0, {min(every)})
        first = sweeps(400, 3)
        kept = [a.tobytes() for a in first]
        sweeps(300, 4)
    finally:
        os.sched_setaffinity(0, every)
    for times, states, bounds in (first[4:7], first[7:]):
        assert times.size == states.size == bounds[-1]
    assert [a.tobytes() for a in first] == kept


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
    times, states, bounds = got
    assert bounds.tolist()[:1] == [0] and bounds.size == count + 1
    want = _reference_paths(seed, prefix, keys, cum_pi, cum, total, n, horizon)
    for k, (t, x, _end) in enumerate(want):
        a, b = bounds[k], bounds[k + 1]
        assert times[a:b].tobytes() == t.tobytes()
        assert states[a:b].tolist() == x
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
    family = ScalingFamily("gompertz", GOMPERTZ_BETA)
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
    family = ScalingFamily("identity")
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
def test_simulate_sweep_refuses_other_inputs():
    """int32 keys, int64 words, an int horizon or a cum_pi of another
    length raise TypeError on the compiled body, and a negative key
    ValueError with the Python body's message.  A missing argument raises
    TypeError on both bodies."""
    cum, total = GOMPERTZ
    words = _kernels.stream_words(8, 2)
    keys = np.arange(40, dtype=np.int64)
    cum_pi = np.cumsum(GOMPERTZ_PI)
    kernel = _kernels.simulate_sweep
    for w, k, c, h in [
        (words, keys.astype(np.int32), cum_pi, 50.0),
        (words.astype(np.int64), keys, cum_pi, 50.0),
        (words, keys, cum_pi, 50),
        (words, keys, np.append(cum_pi, 1.0), 50.0),
    ]:
        with pytest.raises(TypeError, match="^the sweep does not take "):
            kernel(w, k, c, cum, total, 3, h)
    negative = keys.copy()
    negative[5] = -1
    for body in (kernel, kernel.py_func):
        with pytest.raises(TypeError):
            body(words, keys, cum_pi, cum, total, 3)
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
@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_c_source_compiles_without_warnings(tmp_path):
    """``_ckernels.c`` under ``-Wall -Wextra -Werror``, with the flags and
    include directories of the build.  A full compile, not
    ``-fsyntax-only``, which does not report unused functions."""
    includes = [sysconfig.get_paths()["include"], np.get_include()]
    result = subprocess.run(
        ["cc", *_kernels._C_FLAGS, "-Wall", "-Wextra", "-Werror", "-c",
         *(f"-I{d}" for d in includes), _kernels._C_SOURCE, "-o", str(tmp_path / "ckernels.o")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


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

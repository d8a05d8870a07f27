"""The SE-step sweep's bridges against their exact conditional law.

For a chain with generator G over the n + 1 states (the absorbing one
last), the expected number of x -> y jumps and the expected time in x of a
bridge from a at 0 to b at delta are

    E[N_xy | a, b] = G_xy I_xy / p,   E[R_x | a, b] = I_xx / p,

with ``p = (e^(G delta))_ab`` and ``I_xy`` the (a, b) entry of the integral
of ``e^(G t) E_xy e^(G (delta - t))`` over (0, delta), which is the
upper-right block of the exponential of ``[[G, E_xy], [0, G]] delta``
(Van Loan 1978).  A path observed in a transient state at delta then runs
on unconditioned: its expected time in x after delta is ``(-T)^-1[b, x]``
for the transient block T, and its jumps follow.  The Monte Carlo means of
20,000 one-segment paths per case must fall within 5 standard errors of
these, on the compiled sweep and on the first 2,000 paths of its Python
body (which must also match the compiled paths bit for bit).  5,000
bridges of the rejection reference ``bridge_attempts`` must pass too where
rejection is feasible, which checks the oracle itself.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from iphfit import RandomStream, ScalingFamily, SubIntensityMatrix, _kernels, estimator
from iphfit.simulate import bridge_model, jump_model
from iphfit.studies import cohort_panel, simulate_cohort, uniform_grid

from conftest import CLINIC_LAM, GOMPERTZ_BETA, GOMPERTZ_LAM, WEIBULL_LAM

COUNT = 20_000
PY_COUNT = 2_000
REJECTION_COUNT = 5_000
FAMILY = ScalingFamily("gompertz", GOMPERTZ_BETA)
# the longest transformed gap of the Gompertz T = 60 grid: (59, 60]
LARGEST_GAP = float(FAMILY.g_inv(60.0) - FAMILY.g_inv(59.0))

# (generator, a, b, delta), 0-based states, b == n absorbing
CASES = {
    "gompertz": (GOMPERTZ_LAM, 0, 1, 5.0),
    # x to x with mu * delta < 1: the series waits for a uniform that needs it
    "same-state": (GOMPERTZ_LAM, 1, 1, 3.0),
    "weibull": (WEIBULL_LAM, 0, 1, 1.0),
    "largest-gompertz-gap": (GOMPERTZ_LAM, 2, 0, LARGEST_GAP),
    "absorbing-endpoint": (GOMPERTZ_LAM, 2, 3, 20.0),
    "censored": (GOMPERTZ_LAM, 0, 2, 3.0),
    "mu-delta-780": (WEIBULL_LAM, 0, 2, 260.0),
    # p = 4.2e-10: rejection with 10^6 attempts and a retry fails 99.9% of the time
    "rejection-hopeless": (CLINIC_LAM, 0, 1, 200.0),
}
# rejection needs fewer than 40 attempts per bridge here
FEASIBLE = ("gompertz", "same-state", "weibull", "absorbing-endpoint", "censored")


def _generator(lam):
    n = lam.shape[0]
    g = np.zeros((n + 1, n + 1))
    g[:n, :n] = lam
    g[:n, n] = -lam.sum(axis=1)
    return g


def oracle(lam, a, b, delta):
    """``(p, E[N], E[R])`` of a bridge from a to b over delta, from Van
    Loan block exponentials.  The generator is shifted by ``s I`` (at most
    its largest exit rate), which scales every block by ``e^(s delta)`` and
    cancels in the ratios, so that small entries keep their digits."""
    g = _generator(np.asarray(lam, dtype=float))
    size = g.shape[0]
    shift = min(-g.diagonal().min(), 600.0 / delta)
    block = np.zeros((2 * size, 2 * size))
    block[:size, :size] = block[size:, size:] = g + shift * np.eye(size)
    integral = np.zeros((size, size))
    for x in range(size):
        for y in range(size):
            block[x, size + y] = 1.0
            integral[x, y] = expm(block * delta)[a, size + b]
            block[x, size + y] = 0.0
    p = expm((g + shift * np.eye(size)) * delta)[a, b]
    jumps = np.where(np.eye(size, dtype=bool), 0.0, g * integral) / p
    return p * np.exp(-shift * delta), jumps, integral.diagonal() / p


def _tail_oracle(lam, b):
    """Expected jumps and times in each state of the unconditioned run
    from transient b to absorption."""
    g = _generator(np.asarray(lam, dtype=float))
    n = lam.shape[0]
    times = np.zeros(n + 1)
    times[:n] = np.linalg.solve(-g[:n, :n].T, np.eye(n)[b])
    return np.where(np.eye(n + 1, dtype=bool), 0.0, times[:, None] * g), times


def _sweep(lam, a, b, delta, count, body):
    """``count`` paths observed in a at 0 and in b at delta, completed by
    one sweep call sharing one bridge group; returns its paths and work."""
    cum, total, mu, ptrans = bridge_model(SubIntensityMatrix(lam))
    status, _path, _info, work, _stats, paths = body(
        _kernels.stream_words(17), 1, np.arange(count, dtype=np.int64),
        np.tile([0.0, delta], count), np.tile(np.array([a, b], dtype=np.int64), count),
        np.arange(0, 2 * count + 1, 2, dtype=np.int64),
        np.tile(np.array([0, -1], dtype=np.int64), count), cum, total, lam.shape[0], mu,
        ptrans, 1 << 16, 1 << 16,
    )
    assert status == 0
    return paths, work


def _window(paths, size, lo, hi):
    """Per path, the jumps x -> y at epochs in (lo, hi] and the time in
    each state within (lo, hi]: arrays (count, size * size) and (count,
    size)."""
    times, states, bounds = paths
    count = bounds.size - 1
    owner = np.repeat(np.arange(count), np.diff(bounds))
    ends = np.append(times[1:], np.inf)
    ends[bounds[1:] - 1] = np.inf
    held = np.clip(np.minimum(ends, hi) - np.maximum(times, lo), 0.0, None)
    occupation = np.zeros((count, size))
    np.add.at(occupation, (owner, states), held)
    jump = np.ones(times.size, dtype=bool)
    jump[bounds[:-1]] = False
    jump &= (times > lo) & (times <= hi)
    at = np.flatnonzero(jump)
    jumps = np.zeros((count, size * size))
    np.add.at(jumps, (owner[at], states[at - 1] * size + states[at]), 1.0)
    return jumps, occupation


def _worst_z(samples, expected, counts=False):
    """The largest |z| of the sample means against ``expected``; a
    statistic with no spread must equal its expectation.  For jump
    ``counts`` the standard error is at least the Poisson one,
    ``sqrt(expected / paths)``, so that a rare jump no path made is not a
    spread of zero."""
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    if counts:
        se = np.maximum(se, np.sqrt(np.abs(expected) / samples.shape[0]))
    gap = mean - expected
    exact = np.abs(gap) <= 1e-9 * (1.0 + np.abs(expected))
    return float(np.max(np.where(se > 0.0, np.abs(gap) / np.where(se > 0.0, se, 1.0),
                                 np.where(exact, 0.0, np.inf))))


def case_z(name, paths):
    """The worst z-score of a case's bridge statistics, and of its
    censored continuation when b is transient."""
    lam, a, b, delta = CASES[name]
    size = lam.shape[0] + 1
    _p, jumps, occupation = oracle(lam, a, b, delta)
    got_jumps, got_occupation = _window(paths, size, 0.0, delta)
    worst = max(_worst_z(got_jumps, jumps.ravel(), counts=True),
                _worst_z(got_occupation, occupation))
    if b < lam.shape[0]:
        tail_jumps, tail_times = _tail_oracle(lam, b)
        got_jumps, got_occupation = _window(paths, size, delta, np.inf)
        worst = max(worst, _worst_z(got_jumps, tail_jumps.ravel(), counts=True),
                    _worst_z(got_occupation[:, :-1], tail_times[:-1]))
    return worst


@pytest.mark.parametrize("name", list(CASES))
def test_sweep_bridges_follow_the_conditional_law(name):
    lam, a, b, delta = CASES[name]
    kernel = _kernels.complete_sweep
    paths, work = _sweep(lam, a, b, delta, COUNT, kernel)
    assert case_z(name, paths) <= 5.0
    assert work[3] == 1  # one normalizer for the one group
    if not hasattr(kernel, "py_func"):
        return
    py_paths, py_work = _sweep(lam, a, b, delta, PY_COUNT, kernel.py_func)
    assert case_z(name, py_paths) <= 5.0
    head = paths[2][PY_COUNT]
    assert py_paths[0].tobytes() == paths[0][:head].tobytes()
    assert py_paths[1].tobytes() == paths[1][:head].tobytes()
    assert py_paths[2].tobytes() == paths[2][:PY_COUNT + 1].tobytes()
    assert py_work[3] == 1


@pytest.mark.parametrize("name", FEASIBLE)
def test_rejection_reference_follows_the_oracle(name):
    """The parent algorithm, rejection, against the same oracle: a check
    of the oracle itself."""
    lam, a, b, delta = CASES[name]
    size = lam.shape[0] + 1
    cum, total = jump_model(SubIntensityMatrix(lam))
    gen = RandomStream(23).generator()
    tbuf, sbuf = np.empty(256), np.empty(256, dtype=np.int64)
    times, states, bounds = [], [], [0]
    for _ in range(REJECTION_COUNT):
        status, _tried, count = _kernels.bridge_attempts(
            gen, a, b, delta, cum, total, size - 1, 10_000, tbuf, sbuf
        )
        assert status == 0
        times += [0.0, *tbuf[:count]]
        states += [a, *sbuf[:count]]
        bounds.append(len(times))
    paths = (np.array(times), np.array(states), np.array(bounds))
    _p, jumps, occupation = oracle(lam, a, b, delta)
    got_jumps, got_occupation = _window(paths, size, 0.0, delta)
    assert _worst_z(got_jumps, jumps.ravel(), counts=True) <= 5.0
    assert _worst_z(got_occupation, occupation) <= 5.0


def test_largest_gap_and_hopeless_pair_are_what_they_claim():
    """The largest Gompertz T = 60 gap is 430 on the homogeneous scale,
    the long clinic gap has p below 1e-7, and mu * delta passes 745 where
    exp(-mu * delta) underflows."""
    assert 429.0 < LARGEST_GAP < 431.0
    lam, a, b, delta = CASES["rejection-hopeless"]
    assert oracle(lam, a, b, delta)[0] < 1e-7
    lam, a, b, delta = CASES["mu-delta-780"]
    assert bridge_model(SubIntensityMatrix(lam))[2] * delta > 745.0
    assert np.exp(-bridge_model(SubIntensityMatrix(lam))[2] * delta) == 0.0


def test_kept_epochs_increase_inside_their_segments():
    """Every kept epoch lies in its segment (s1, s2] and the epochs of a
    path strictly increase: on a Gompertz T = 60 panel of a slow chain,
    whose paths reach the segment (3997, 4427] of the homogeneous scale,
    and on a gap of
    1e-9 at 4000, which holds about 1,100 floats for three jumps."""
    lam = SubIntensityMatrix(0.1 * GOMPERTZ_LAM)
    cohort = simulate_cohort([0.0451, 0.1303, 0.8246], lam, FAMILY, 60.0, 400, RandomStream(31))
    panel = estimator._PanelArrays(cohort_panel(cohort, uniform_grid(60.0, 1.0)))
    obs_s = np.asarray(FAMILY.g_inv(panel.flat_times), dtype=float)
    assert obs_s.max() > 3900.0
    cum, total, mu, ptrans = bridge_model(lam)
    chain = SubIntensityMatrix(np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]))
    count = 5_000
    cases = [
        (panel.keys, obs_s, panel.flat_states0, panel.starts, panel.groups, lam),
        (np.arange(count, dtype=np.int64), np.tile([4000.0, 4000.0 + 1e-9], count),
         np.tile(np.array([0, 3], dtype=np.int64), count),
         np.arange(0, 2 * count + 1, 2, dtype=np.int64),
         np.tile(np.array([0, -1], dtype=np.int64), count), chain),
    ]
    for keys, s, x, starts, groups, model in cases:
        cum, total, mu, ptrans = bridge_model(model)
        for body in (_kernels.complete_sweep, getattr(_kernels.complete_sweep, "py_func", None)):
            if body is None:
                continue
            status, *_, (times, states, bounds) = body(
                _kernels.stream_words(5), 1, keys, s, x, starts, groups, cum, total,
                model.n, mu, ptrans, 1 << 16, 1 << 16,
            )
            assert status == 0
            for k in range(keys.size):
                t = times[bounds[k] + 1:bounds[k + 1]]
                obs = s[starts[k]:starts[k + 1]]
                assert np.all(np.diff(t) > 0.0) and t[0] > obs[0]
                # the state entered last at or before each observation is the observed one
                at = np.searchsorted(times[bounds[k]:bounds[k + 1]], obs, side="right") - 1
                assert states[bounds[k]:bounds[k + 1]][at].tolist() == x[starts[k]:starts[k + 1]].tolist()
            if model is chain:
                jumps = times.reshape(count, -1)[:, 1:]
                assert np.all((jumps > 4000.0) & (jumps <= 4000.0 + 1e-9))

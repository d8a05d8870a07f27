import numpy as np
import pytest

from iphfit import InitialDistribution, PanelObservationSet, SubIntensityMatrix, _kernels
from iphfit.simulate import bridge_model

import _report


# Reference parameter sets used across the suite.  The three-state set is
# the long-window simulation configuration; the two-state set is the
# polynomial-scaling one; the "clinic" matrix is a fitted three-state
# example with irregular visit schedules (entries rounded to 4 decimals).

GOMPERTZ_BETA = 0.1019
GOMPERTZ_PI = np.array([0.0451, 0.1303, 0.8246])
GOMPERTZ_LAM = np.array(
    [
        [-0.1357, 0.1214, 0.0],
        [0.0130, -0.0421, 0.0288],
        [0.1415, 0.0184, -0.1620],
    ]
)

WEIBULL_BETA = 3.0
WEIBULL_PI = np.array([0.5, 0.5])
WEIBULL_LAM = np.array([[-3.0, 0.1], [0.01, -0.1]])

CLINIC_LAM = np.array(
    [
        [-0.2068, 0.1015, 0.0130],
        [0.0833, -0.3452, 0.1984],
        [0.0144, 0.0217, -0.1445],
    ]
)


def panel_from_rows(n, rows):
    """The panel of ``rows``, a list of (path_id, times, states) with
    1-based states, through its one constructor."""
    return PanelObservationSet(
        n,
        [pid for pid, _, _ in rows],
        np.concatenate([np.asarray(t, dtype=float) for _, t, _ in rows]),
        np.concatenate([np.asarray(s, dtype=np.int64) for _, _, s in rows]),
        np.cumsum([0] + [len(t) for _, t, _ in rows]),
    )


def exact_path(lam, obs_s, obs_x, gen, cap=1 << 16):
    """A per-path reference of the SE-step sweep's completion.

    The path observed at the epochs ``obs_s`` in the 0-based states
    ``obs_x`` is completed on the generator ``gen`` with its own chain,
    normalizers and step table: one ``_kernels._bridge`` per segment, then
    ``_kernels._run_chain`` on to absorption when the last state is
    transient.  Returns ``(times, states, counts)``: the completed path
    from its entry into ``obs_x[0]`` at 0.0 (0-based states), and the
    virtual-jump count R of each bridge.
    """
    cum, total, mu, ptrans = bridge_model(lam)
    n = lam.n
    chain = _kernels._Chain(ptrans)
    norms = []
    for i in range(len(obs_s) - 1):
        q = float(mu * (obs_s[i + 1] - obs_s[i]))
        status, norm = _kernels._series(chain, q, int(obs_x[i]), int(obs_x[i + 1]), 1 << 16)
        assert status == 0 and norm[0][-1] > 0.0
        norms.append(norm)
    steps = chain.steps(max([1] + [norm[3] for norm in norms]))
    tbuf, sbuf = np.empty(cap), np.empty(cap, dtype=np.int64)
    count, counts = 0, []
    for i, norm in enumerate(norms):
        status, count, r = _kernels._bridge(
            gen, steps, n, float(obs_s[i]), float(obs_s[i + 1]), int(obs_x[i]),
            int(obs_x[i + 1]), norm, gen.random(), tbuf, sbuf, count,
        )
        assert status == 0
        counts.append(r)
    if obs_x[-1] != n:
        status, count, _state, _t = _kernels._run_chain(
            gen, cum, total, n, int(obs_x[-1]), float(obs_s[-1]), np.inf, tbuf, sbuf, count
        )
        assert status == 1
    times = np.concatenate(([0.0], tbuf[:count]))
    return times, np.concatenate((obs_x[:1], sbuf[:count])), counts


@pytest.fixture(scope="session")
def gompertz_pi() -> InitialDistribution:
    return InitialDistribution(GOMPERTZ_PI)


@pytest.fixture(scope="session")
def gompertz_lam() -> SubIntensityMatrix:
    return SubIntensityMatrix(GOMPERTZ_LAM)


@pytest.fixture(scope="session")
def weibull_pi() -> InitialDistribution:
    return InitialDistribution(WEIBULL_PI)


@pytest.fixture(scope="session")
def weibull_lam() -> SubIntensityMatrix:
    return SubIntensityMatrix(WEIBULL_LAM)


@pytest.fixture(scope="session")
def clinic_lam() -> SubIntensityMatrix:
    return SubIntensityMatrix(CLINIC_LAM)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _report.LINES:
            terminalreporter.write_line(line)

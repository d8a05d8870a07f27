import numpy as np
import pytest

from iphfit import InitialDistribution, PanelObservationSet, SubIntensityMatrix

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

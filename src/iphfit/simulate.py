"""Trajectory simulation, panel discretization and Markov bridges.

Simulation follows the jump-chain/holding-time construction: the holding
time in state x is Exponential with rate ``-lambda_xx``; the chain then
moves to y != x with probability ``lambda_xy / (-lambda_xx)`` or absorbs
with probability ``exit_rate_x / (-lambda_xx)``.  The fit's bridges are
drawn exactly, by uniformization, inside ``_kernels.complete_sweep``;
``bridge_model`` gives their chain.  ``bridge_sample`` draws one bridge
by rejection (simulate from the left endpoint over the interval and
accept only when the state occupied at the right endpoint matches): it is
the rejection reference kept for the tests and the benchmark.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import BridgeBudgetError, NumericalError, StructuralError, ValidationError
from .generator import InitialDistribution, SubIntensityMatrix
from .paths import INHOMOGENEOUS, FlatPaths, PanelObservationSet, RandomStream
from .scaling import ScalingFamily

_BRIDGE_CAP = 1 << 16


def _as_matrix(m) -> SubIntensityMatrix:
    if not isinstance(m, SubIntensityMatrix):
        m = SubIntensityMatrix(m)
    m.require_valid()
    return m


def _as_pi(pi, n: int) -> InitialDistribution:
    if not isinstance(pi, InitialDistribution):
        pi = InitialDistribution(np.asarray(pi, dtype=float))
    if pi.n != n:
        raise ValidationError(
            f"initial distribution has {pi.n} states, generator has {n}"
        )
    return pi


def _rates(m: SubIntensityMatrix) -> np.ndarray:
    """The (n, n + 1) table of off-diagonal rates (self entry zeroed), then
    the exit rate, of each transient state."""
    n = m.n
    rates = np.zeros((n, n + 1))
    rates[:, :n] = np.where(np.eye(n, dtype=bool), 0.0, m.entries)
    rates[:, n] = m.exit_rates()
    return rates


def jump_model(m: SubIntensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative-rate table for the kernels: (cum, total).

    ``cum[x]`` accumulates the n off-diagonal rates of x (self entry
    zeroed) followed by its exit rate; ``total[x] == cum[x, -1]``.
    """
    cum = np.ascontiguousarray(np.cumsum(_rates(m), axis=1))
    return cum, np.ascontiguousarray(cum[:, -1].copy())


def bridge_model(m: SubIntensityMatrix) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """``jump_model(m)`` and the uniformized chain of the bridges: ``(cum,
    total, mu, P)``.

    ``mu`` is the largest total exit rate and ``P = I + G/mu`` over the
    n + 1 states, where G is the generator with the absorbing state last
    and its row zero, so that row of P is the identity; ``P = I`` when mu
    is 0.  A chain that jumps at rate mu by P is the chain of G.
    """
    rates = _rates(m)
    n = m.n
    cum = np.ascontiguousarray(np.cumsum(rates, axis=1))
    total = np.ascontiguousarray(cum[:, -1].copy())
    mu = float(total.max())
    ptrans = np.eye(n + 1)
    if mu > 0.0:
        ptrans[:n] = rates / mu
        ptrans[np.arange(n), np.arange(n)] = 1.0 - total / mu
    return cum, total, mu, ptrans


def check_absorbable(m: SubIntensityMatrix, start_states0) -> None:
    """Raise unless absorption is reachable from every state reachable
    from ``start_states0`` (0-based) along positive-rate edges."""
    arr = m.entries
    n = m.n
    edges = arr > 0.0
    np.fill_diagonal(edges, False)
    reach = np.zeros(n, dtype=bool)
    stack = [int(s) for s in start_states0]
    for s in stack:
        reach[s] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(edges[i])[0]:
            if not reach[j]:
                reach[j] = True
                stack.append(int(j))
    can_absorb = m.exit_rates() > 0.0
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if not can_absorb[i] and np.any(edges[i] & can_absorb):
                can_absorb[i] = True
                changed = True
    bad = np.nonzero(reach & ~can_absorb)[0]
    if bad.size:
        states = ", ".join(str(i + 1) for i in bad)
        raise StructuralError(
            f"absorption is unreachable from reachable state(s) {states}"
        )


def simulate_paths(m, pi, family: ScalingFamily, horizon: float, rng: RandomStream,
                   count: int) -> FlatPaths:
    """Simulate ``count`` time-scaled trajectories up to inhomogeneous time
    ``horizon`` in one ``_kernels.simulate_sweep`` call, path k drawing
    from ``rng.substream(k)``.

    The homogeneous chain runs to the transformed horizon and its jump
    epochs are mapped back through ``g``, so under the identity family
    they are the chain's own.  ``horizon`` may be ``inf``; absorption must
    then be reachable from every state the chain can visit.
    """
    m = _as_matrix(m)
    pi = _as_pi(pi, m.n)
    horizon = float(horizon)
    if np.isnan(horizon) or horizon < 0.0:
        raise ValidationError(f"horizon must be >= 0, got {horizon!r}")
    hom_horizon = horizon if np.isinf(horizon) else float(family.g_inv(horizon))
    cum, total = jump_model(m)
    words = _kernels.stream_words(rng.seed, *rng.key)
    args = (words, np.arange(count, dtype=np.int64), np.cumsum(pi.probabilities), cum, total, m.n)
    if np.isinf(hom_horizon):
        # the initial draws alone: absorption must be reachable from each
        _times, states, bounds, _ends = _kernels.simulate_sweep(*args, 0.0)
        check_absorbable(m, np.unique(states[bounds[:-1]]))
    times, states, bounds, ends = _kernels.simulate_sweep(*args, hom_horizon)
    jumps = np.ones(times.size, dtype=bool)
    jumps[bounds[:-1]] = False
    times[jumps] = family.g(times[jumps])
    last = bounds[1:] - 1
    ends = np.where(states[last] == m.n, times[last], horizon)
    return FlatPaths(m.n, times, states, bounds, ends, INHOMOGENEOUS)


def uniform_grid(horizon: float, delta: float) -> np.ndarray:
    """Observation epochs 0, delta, 2*delta, ... capped at the horizon."""
    if delta <= 0 or horizon <= 0:
        raise ValidationError("grid needs positive delta and horizon")
    count = int(np.floor(horizon / delta + 1e-9))
    grid = np.arange(count + 1, dtype=float) * delta
    if grid[-1] > horizon:  # float slop in count*delta
        grid[-1] = horizon
    return grid


def observe(paths: FlatPaths, grid, ids) -> PanelObservationSet:
    """Observe every path on ``grid``, path k under the id ``ids[k]``, with
    one search of all jump epochs in the grid.

    The state recorded at a grid time is the last state entered at or
    before it.  Grid points after the absorption epoch are dropped except
    the first one, which records the absorbing state; grid points after a
    censoring horizon are dropped.
    """
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("observation grid must be a non-empty vector")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("observation grid must be finite")
    if grid[0] != 0.0:
        raise ValidationError("observation grid must start at 0")
    if np.any(np.diff(grid) <= 0.0):
        raise ValidationError("observation grid must increase strictly")
    bounds, size = paths.bounds, grid.size
    # entry i is the latest one of its path at every grid point from start[i]
    # on; column `size` takes the entries after the last grid point
    start = np.searchsorted(grid, paths.times, side="left")
    latest = np.zeros((len(paths), size + 1), dtype=np.int64)
    owner = np.repeat(np.arange(len(paths)), np.diff(bounds))
    np.maximum.at(latest, (owner, start), np.arange(paths.times.size))
    states = paths.states[np.maximum.accumulate(latest[:, :size], axis=1)] + 1
    last = bounds[1:] - 1
    seen = np.where(
        paths.states[last] == paths.n,
        np.minimum(start[last] + 1, size),
        np.searchsorted(grid, paths.end_times, side="right"),
    )
    kept = np.arange(size) < seen[:, None]
    return PanelObservationSet(
        paths.n, ids, np.broadcast_to(grid, kept.shape)[kept], states[kept],
        np.concatenate(([0], np.cumsum(seen))),
    )


def bridge_sample(
    m,
    s1: float,
    x: int,
    s2: float,
    y: int,
    rng: RandomStream,
    max_attempts: int = 1_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw an endpoint-conditioned segment by rejection: the reference
    the tests and the benchmark keep for the fit's exact bridges.

    Simulates from state ``x`` over ``[s1, s2]`` repeatedly until the
    state occupied at ``s2`` equals ``y``; only such trajectories are
    accepted.  Returns ``(jump_times, jump_states)``: the absolute epochs
    of the accepted segment's jumps, strictly increasing within ``(s1,
    s2]``, and the 1-based states they enter, the last of them ``y``.
    Both are empty when the accepted segment makes no jump (so x == y).

    Raises
    ------
    BridgeBudgetError
        After ``max_attempts`` rejected attempts (the endpoint pair has
        near-zero probability under ``m``).
    """
    m = _as_matrix(m)
    n = m.n
    s1, s2 = float(s1), float(s2)
    if not (np.isfinite(s1) and np.isfinite(s2) and s1 < s2):
        raise ValidationError(f"bridge needs finite s1 < s2, got {s1!r}, {s2!r}")
    if not (1 <= int(x) <= n):
        raise ValidationError(f"bridge start state must be transient, got {x}")
    if not (1 <= int(y) <= n + 1):
        raise ValidationError(f"bridge end state must lie in 1..{n + 1}, got {y}")
    if int(max_attempts) < 1:
        raise ValidationError("max_attempts must be at least 1")
    cum, total = jump_model(m)
    tbuf = np.empty(_BRIDGE_CAP, dtype=np.float64)
    sbuf = np.empty(_BRIDGE_CAP, dtype=np.int64)
    gen = rng.generator()
    status, attempts, count = _kernels.bridge_attempts(
        gen, int(x) - 1, int(y) - 1, s2 - s1, cum, total, n,
        int(max_attempts), tbuf, sbuf,
    )
    if status == 1:
        raise BridgeBudgetError(int(x), int(y), s2 - s1, attempts)
    if status == 2:
        raise NumericalError(
            f"bridge attempt exceeded {_BRIDGE_CAP} jumps; rates are too fast "
            "for this interval length"
        )
    return s1 + tbuf[:count], sbuf[:count] + 1

"""Trajectory simulation, panel discretization and Markov bridges.

Simulation follows the jump-chain/holding-time construction: the holding
time in state x is Exponential with rate ``-lambda_xx``; the chain then
moves to y != x with probability ``lambda_xy / (-lambda_xx)`` or absorbs
with probability ``exit_rate_x / (-lambda_xx)``.  Bridges are drawn by
rejection: simulate from the left endpoint over the interval and accept
only when the state occupied at the right endpoint matches.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import BridgeBudgetError, NumericalError, StructuralError, ValidationError
from .generator import InitialDistribution, SubIntensityMatrix
from .paths import (
    HOMOGENEOUS,
    INHOMOGENEOUS,
    ContinuousPath,
    FlatPaths,
    PanelObservationSet,
    PanelPath,
    PathSegment,
    RandomStream,
)
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


def jump_model(m: SubIntensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative-rate table for the kernels: (cum, total).

    ``cum[x]`` accumulates the n off-diagonal rates of x (self entry
    zeroed) followed by its exit rate; ``total[x] == cum[x, -1]``.
    """
    arr = m.entries
    n = m.n
    rates = np.zeros((n, n + 1))
    rates[:, :n] = np.where(np.eye(n, dtype=bool), 0.0, arr)
    rates[:, n] = m.exit_rates()
    cum = np.ascontiguousarray(np.cumsum(rates, axis=1))
    return cum, np.ascontiguousarray(cum[:, -1].copy())


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
    ``horizon`` in one kernel call; path k draws from ``rng.substream(k)``
    exactly as ``simulate_inhomogeneous`` does."""
    words = _kernels.stream_words(rng.seed, *rng.key)
    return _simulate(m, pi, horizon, words, np.arange(count, dtype=np.int64), family)


def _simulate(m, pi, horizon, words, keys, family: ScalingFamily | None = None) -> FlatPaths:
    """The paths of ``_kernels.simulate_sweep`` for these stream words and
    keys, on the homogeneous timeline, or, given a family, run to the
    transformed horizon and mapped back through ``g``."""
    m = _as_matrix(m)
    pi = _as_pi(pi, m.n)
    horizon = float(horizon)
    if np.isnan(horizon) or horizon < 0.0:
        raise ValidationError(f"horizon must be >= 0, got {horizon!r}")
    hom_horizon = horizon if family is None or np.isinf(horizon) else float(family.g_inv(horizon))
    cum, total = jump_model(m)
    args = (words, keys, np.cumsum(pi.probabilities), cum, total, m.n)
    if np.isinf(hom_horizon):
        # the initial draws alone: absorption must be reachable from each
        _times, states, bounds, _ends = _kernels.simulate_sweep(*args, 0.0)
        check_absorbable(m, np.unique(states[bounds[:-1]]))
    times, states, bounds, ends = _kernels.simulate_sweep(*args, hom_horizon)
    if family is None:
        return FlatPaths(m.n, times, states, bounds, ends, HOMOGENEOUS)
    jumps = np.ones(times.size, dtype=bool)
    jumps[bounds[:-1]] = False
    times[jumps] = family.g(times[jumps])
    last = bounds[1:] - 1
    ends = np.where(states[last] == m.n, times[last], horizon)
    return FlatPaths(m.n, times, states, bounds, ends, INHOMOGENEOUS)


def _own_stream(rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Words and a one-key vector under which the kernel draws from
    ``rng.generator()``'s stream: the last entropy word serves as the key."""
    words = _kernels.stream_words(rng.seed, *rng.key)
    return words[:-1], words[-1:].astype(np.int64)


def simulate_homogeneous(m, pi, horizon: float, rng: RandomStream) -> ContinuousPath:
    """Simulate one homogeneous trajectory up to ``horizon``.

    Parameters
    ----------
    m : SubIntensityMatrix
    pi : InitialDistribution
    horizon : float
        Censoring time on the homogeneous scale; may be ``inf``, in which
        case absorption must be reachable from every state the chain can
        visit.
    rng : RandomStream

    Returns
    -------
    ContinuousPath tagged with the homogeneous timeline.
    """
    return _simulate(m, pi, horizon, *_own_stream(rng))[0]


def simulate_inhomogeneous(
    m, pi, family: ScalingFamily, horizon: float, rng: RandomStream
) -> ContinuousPath:
    """Simulate one time-scaled trajectory up to inhomogeneous time ``horizon``.

    The homogeneous chain is simulated to the transformed horizon and every
    epoch is mapped back through the inverse transform, so with a shared
    RandomStream the state sequence equals the homogeneous path's exactly.
    """
    return _simulate(m, pi, horizon, *_own_stream(rng), family)[0]


def discretize(path: ContinuousPath, grid, path_id: str = "p0") -> PanelPath:
    """Observe a continuous path on a discrete grid.

    The state recorded at a grid time is the last state entered at or
    before it.  Grid points after the absorption epoch are dropped except
    the first one, which records the absorbing state; grid points after a
    censoring horizon are dropped.
    """
    flat = FlatPaths(
        path.n, path.times, path.states - 1, np.array([0, path.times.size]),
        np.array([path.end_time]), path.timeline,
    )
    return observe(flat, grid, [path_id]).paths[0]


def observe(paths: FlatPaths, grid, ids) -> PanelObservationSet:
    """Observe every path on ``grid`` as ``discretize`` does, path k under
    the id ``ids[k]``, with one search of all jump epochs in the grid; the
    panel is built from its flat arrays."""
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
    return PanelObservationSet.from_arrays(
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
) -> PathSegment:
    """Draw an endpoint-conditioned segment by rejection.

    Simulates from state ``x`` over ``[s1, s2]`` repeatedly until the
    state occupied at ``s2`` equals ``y``; only such trajectories are
    accepted.  Epochs in the returned segment are absolute (in
    ``(s1, s2]``).

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
    return PathSegment(
        n=n,
        start_time=s1,
        start_state=int(x),
        jump_times=s1 + tbuf[:count],
        jump_states=sbuf[:count] + 1,
        end_time=s2,
        timeline=HOMOGENEOUS,
    )

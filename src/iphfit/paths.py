"""Path containers and reproducible random streams.

Two timelines appear throughout: the calendar ("inhomogeneous") timeline
of the observed data, and the operational ("homogeneous") timeline obtained
through the time transform, on which the process is a plain Markov jump
process.  Continuous paths carry a tag naming the timeline their epochs
live on, and the sufficient-statistics accumulator refuses paths that are
not on the homogeneous one.

States are 1-based here (external convention); the absorbing state of an
n-state model is n + 1.

Many paths travel flat, stored end to end in plain arrays: simulated and
completed trajectories as ``FlatPaths``, observed panels as
``PanelObservationSet``.  Each is validated once, in bulk, when it is
built.  ``FlatPaths`` builds a ``ContinuousPath`` only when one of its
paths is read by index; a panel has no per-path objects at all.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HOMOGENEOUS = "homogeneous"
INHOMOGENEOUS = "inhomogeneous"


@dataclass(frozen=True)
class ContinuousPath:
    """Fully observed jump path of an (n+1)-state absorbing chain.

    ``times[0] == 0`` is the entry into ``states[0]``; later entries are
    jump epochs, strictly increasing, with no consecutive repeated state.
    ``end_time`` is the absorption epoch when ``absorbed`` (equal to
    ``times[-1]``, the entry into state n+1) and the censoring horizon
    otherwise.
    """

    n: int
    times: np.ndarray
    states: np.ndarray
    end_time: float
    timeline: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=np.int64)
        if self.timeline not in (HOMOGENEOUS, INHOMOGENEOUS):
            raise ValidationError(f"unknown timeline tag {self.timeline!r}")
        if self.n < 1:
            raise ValidationError("path needs at least one transient state")
        if times.ndim != 1 or times.shape != states.shape or times.size == 0:
            raise ValidationError("times and states must be matching non-empty vectors")
        if not np.all(np.isfinite(times)) or times[0] != 0.0:
            raise ValidationError("path times must be finite and start at 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValidationError("path times must be strictly increasing")
        if np.any(states < 1) or np.any(states > self.n + 1):
            raise ValidationError(f"path states must lie in 1..{self.n + 1}")
        if np.any(states[:-1] == states[1:]):
            raise ValidationError("path repeats a state across a jump")
        if np.any(states[:-1] == self.n + 1):
            raise ValidationError("absorbing state may only appear last")
        end = float(self.end_time)
        if not np.isfinite(end):
            raise ValidationError("end_time must be finite")
        if self.absorbed:
            if end != times[-1]:
                raise ValidationError("absorbed path must end at its last jump epoch")
        elif end < times[-1]:
            raise ValidationError("end_time precedes the last jump epoch")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "end_time", end)

    @property
    def absorbed(self) -> bool:
        return int(self.states[-1]) == self.n + 1


@dataclass(frozen=True, eq=False)
class FlatPaths(Sequence):
    """Continuous paths stored end to end, read as a sequence of
    :class:`ContinuousPath`.

    Path k is entries ``bounds[k]:bounds[k + 1]`` of ``times`` and of the
    0-based ``states``: its entry into its first state at 0.0, then its
    jumps.  ``end_times[k]`` is its absorption epoch when it ends in the
    absorbing state n, and its censoring horizon otherwise.  Indexing
    builds (and so validates) a ``ContinuousPath``; a slice gives
    ``FlatPaths``.
    """

    n: int
    times: np.ndarray
    states: np.ndarray
    bounds: np.ndarray
    end_times: np.ndarray
    timeline: str

    def __len__(self) -> int:
        return self.end_times.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            picked = np.arange(len(self))[k]
            lo, hi = self.bounds[picked], self.bounds[picked + 1]
            bounds = np.concatenate(([0], np.cumsum(hi - lo)))
            rows = np.repeat(lo - bounds[:-1], hi - lo) + np.arange(bounds[-1])
            return FlatPaths(
                self.n, self.times[rows], self.states[rows], bounds, self.end_times[picked],
                self.timeline,
            )
        k = range(len(self))[k]
        a, b = self.bounds[k], self.bounds[k + 1]
        return ContinuousPath(
            n=self.n,
            times=self.times[a:b],
            states=self.states[a:b] + 1,
            end_time=float(self.end_times[k]),
            timeline=self.timeline,
        )

    @property
    def absorbed(self) -> np.ndarray:
        """Whether each path ends in the absorbing state."""
        return self.states[self.bounds[1:] - 1] == self.n


class PanelObservationSet:
    """Panel paths over a common n-state model, stored end to end.

    Path k is ``ids[k]``, observed at ``times[starts[k]:starts[k + 1]]`` in
    the 1-based ``states[...]``; the arrays are read-only views of those
    handed in.  The set is validated once, in bulk.  Observation times
    come first: the first path whose times are empty, non-finite, not
    starting at 0 or not strictly increasing raises.  Then the first path
    with a duplicate id, a state outside 1..n+1 or the absorbing state
    before its last observation raises.

    May be empty (a simulate run with zero paths writes a header-only
    file); estimation rejects empty sets at its own boundary.
    """

    def __init__(self, n: int, ids, times, states, starts):
        self.n = int(n)
        self.ids = tuple(ids)
        # views, so that making them read-only leaves the caller's arrays be
        self.times = np.asarray(times, dtype=float).view()
        self.states = np.asarray(states, dtype=np.int64).view()
        self.starts = np.asarray(starts, dtype=np.int64).view()
        _check_panel(self.n, self.ids, self.times, self.states, self.starts)
        for a in (self.times, self.states, self.starts):
            a.setflags(write=False)

    def __repr__(self) -> str:
        return (
            f"PanelObservationSet(n={self.n}, ids={self.ids!r}, times={self.times!r}, "
            f"states={self.states!r}, starts={self.starts!r})"
        )

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def absorbed(self) -> np.ndarray:
        """Whether each path's last observation is the absorbing state."""
        return self.states[self.starts[1:] - 1] == self.n + 1

    def absorbed_count(self) -> int:
        return int(np.count_nonzero(self.absorbed))


def _check_panel(n, ids, times, states, starts) -> None:
    """Raise the first error of the panel: its state count and array
    shapes, then its observation times, then the set's checks, each at
    the first path failing it."""
    if n < 1:
        raise ValidationError("panel needs at least one transient state")
    if (
        times.ndim != 1 or states.shape != times.shape or starts.shape != (len(ids) + 1,)
        or starts[0] != 0 or starts[-1] != times.size or np.any(starts[1:] < starts[:-1])
    ):
        raise ValidationError(
            "panel arrays must be matching vectors, split by offsets from 0 to their length"
        )
    _check_observations(ids, times, starts)
    _raise_first(ids, (
        (_first_repeat(ids), "duplicate path id {!r}"),
        (_path_of(starts, (states < 1) | (states > n + 1)),
         f"path {{}}: states must lie in 1..{n + 1}"),
        (_path_of(starts, _follows(starts) & (states[:-1] == n + 1)),
         "path {}: absorbing state before the final observation"),
    ))


def _check_observations(ids, times, starts) -> None:
    """Raise the message of the first path ``times[starts[k]:starts[k + 1]]``
    whose times are empty, non-finite, not starting at 0 or not strictly
    increasing."""
    heads, sizes = starts[:-1], np.diff(starts)
    not_zero = np.zeros(len(ids), dtype=bool)
    not_zero[sizes > 0] = times[heads[sizes > 0]] != 0.0
    _raise_first(ids, (
        (_first(sizes == 0), "path {}: times and states must be matching non-empty vectors"),
        (_path_of(starts, ~np.isfinite(times)), "path {}: non-finite observation time"),
        (_first(not_zero), "path {}: first observation must be at time 0"),
        (_path_of(starts, _follows(starts) & (times[1:] <= times[:-1])),
         "path {}: observation times must be strictly increasing"),
    ))


def _raise_first(ids, checks) -> None:
    """Each check is (the first path failing it, or ``len(ids)``; its
    message): raise the message of the first path any check fails, the
    first listed on a tie."""
    k, message = min(checks, key=lambda check: check[0])
    if k < len(ids):
        raise ValidationError(message.format(ids[k]))


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry of ``mask``, or its length."""
    i = int(np.argmax(mask)) if mask.size else 0
    return i if mask.size and mask[i] else mask.size


def _follows(starts: np.ndarray) -> np.ndarray:
    """Entry i: whether row i + 1 follows row i within one path."""
    follows = np.ones(max(int(starts[-1]) - 1, 0), dtype=bool)
    heads = starts[:-1][(starts[:-1] > 0) & (starts[:-1] < starts[1:])]
    follows[heads - 1] = False
    return follows


def _path_of(starts: np.ndarray, rows: np.ndarray) -> int:
    """The path holding row i for the first True ``rows[i]``, or the path
    count."""
    i = _first(rows)
    if i == rows.size:
        return starts.size - 1
    return int(np.searchsorted(starts, i, side="right")) - 1


def _first_repeat(ids) -> int:
    """Index of the first id that occurred earlier in ``ids``, or their count."""
    if len(set(ids)) < len(ids):
        seen = set()
        for k, i in enumerate(ids):
            if i in seen:
                return k
            seen.add(i)
    return len(ids)


class RandomStream:
    """Hierarchically keyed random streams for reproducible simulation.

    A stream is a root seed plus a key tuple of non-negative integers.
    ``substream(*key)`` extends the key; ``generator()`` yields the PCG64
    generator of ``SeedSequence([seed, *key])``.  Identical (seed, key)
    pairs give bitwise-identical draws regardless of creation order, so
    work keyed per path can run in any order (or in parallel) without
    changing results.
    """

    __slots__ = ("seed", "key")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        seed = int(seed)
        if seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        key = tuple(int(k) for k in key)
        if any(k < 0 for k in key):
            raise ValidationError("stream keys must be non-negative integers")
        self.seed = seed
        self.key = key

    def substream(self, *key: int) -> "RandomStream":
        return RandomStream(self.seed, self.key + tuple(key))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, *self.key]))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, key={self.key})"

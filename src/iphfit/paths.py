"""Path containers and reproducible random streams.

Two timelines appear throughout: the calendar ("inhomogeneous") timeline
of the observed data, and the operational ("homogeneous") timeline obtained
through the time transform, on which the process is a plain Markov jump
process.  Continuous paths carry a tag naming the timeline their epochs
live on, and the sufficient-statistics accumulator refuses paths that are
not on the homogeneous one.

States are 1-based here (external convention); the absorbing state of an
n-state model is n + 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

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

    def state_at(self, t: float) -> int:
        """State occupied at time ``t`` (cadlag, valid for 0 <= t <= end_time)."""
        if t < 0.0 or t > self.end_time:
            raise ValidationError(f"t={t!r} outside the path's span")
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return int(self.states[idx])


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


@dataclass(frozen=True)
class PathSegment:
    """Piece of a continuous path over ``[start_time, end_time]``.

    The segment sits in ``start_state`` (transient) at ``start_time``;
    ``jump_times`` are the epochs of subsequent jumps, strictly increasing
    within ``(start_time, end_time]``, and ``jump_states`` the states
    entered.  Bridge segments end at the conditioning time ``end_time``
    with their terminal state equal to the conditioned endpoint; censoring
    completions end at the absorption epoch (``end_time ==
    jump_times[-1]``).  Both arrays may be empty (a bridge between equal
    endpoints may have no interior jumps).
    """

    n: int
    start_time: float
    start_state: int
    jump_times: np.ndarray
    jump_states: np.ndarray
    end_time: float
    timeline: str

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        js = np.asarray(self.jump_states, dtype=np.int64)
        if self.timeline not in (HOMOGENEOUS, INHOMOGENEOUS):
            raise ValidationError(f"unknown timeline tag {self.timeline!r}")
        if self.n < 1:
            raise ValidationError("segment needs at least one transient state")
        if not (1 <= int(self.start_state) <= self.n):
            raise ValidationError(
                f"segment must start in a transient state, got {self.start_state}"
            )
        if jt.ndim != 1 or jt.shape != js.shape:
            raise ValidationError("jump_times and jump_states must match in shape")
        start = float(self.start_time)
        end = float(self.end_time)
        if not (np.isfinite(start) and np.isfinite(end)) or end < start:
            raise ValidationError("segment needs finite start_time <= end_time")
        if jt.size:
            if not np.all(np.isfinite(jt)):
                raise ValidationError("segment jump epochs must be finite")
            if jt[0] <= start or np.any(np.diff(jt) <= 0.0) or jt[-1] > end:
                raise ValidationError(
                    "segment jump epochs must increase strictly within "
                    "(start_time, end_time]"
                )
            if np.any(js < 1) or np.any(js > self.n + 1):
                raise ValidationError(f"segment states must lie in 1..{self.n + 1}")
            full = np.concatenate(([self.start_state], js))
            if np.any(full[:-1] == full[1:]):
                raise ValidationError("segment repeats a state across a jump")
            if np.any(js[:-1] == self.n + 1):
                raise ValidationError("absorbing state may only appear last")
        jt.setflags(write=False)
        js.setflags(write=False)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_states", js)
        object.__setattr__(self, "start_time", start)
        object.__setattr__(self, "start_state", int(self.start_state))
        object.__setattr__(self, "end_time", end)

    @property
    def terminal_state(self) -> int:
        return int(self.jump_states[-1]) if self.jump_states.size else self.start_state

    @property
    def absorbed(self) -> bool:
        return self.terminal_state == self.n + 1


@dataclass(frozen=True)
class PanelPath:
    """One path observed at discrete times only.

    ``times`` start at 0 and increase strictly; ``states`` are 1-based with
    the absorbing state n+1 allowed only at the final observation.
    """

    path_id: str
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=np.int64)
        if times.ndim != 1 or times.shape != states.shape or times.size == 0:
            raise ValidationError(
                f"path {self.path_id}: times and states must be matching non-empty vectors"
            )
        if not np.all(np.isfinite(times)):
            raise ValidationError(f"path {self.path_id}: non-finite observation time")
        if times[0] != 0.0:
            raise ValidationError(
                f"path {self.path_id}: first observation must be at time 0"
            )
        if np.any(np.diff(times) <= 0.0):
            raise ValidationError(
                f"path {self.path_id}: observation times must be strictly increasing"
            )
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def m(self) -> int:
        """Number of observations after the initial one."""
        return self.times.size - 1

    def check_states(self, n: int) -> None:
        states = self.states
        if np.any(states < 1) or np.any(states > n + 1):
            raise ValidationError(
                f"path {self.path_id}: states must lie in 1..{n + 1}"
            )
        if np.any(states[:-1] == n + 1):
            raise ValidationError(
                f"path {self.path_id}: absorbing state before the final observation"
            )

    def absorbed(self, n: int) -> bool:
        return int(self.states[-1]) == n + 1


@dataclass(frozen=True)
class PanelObservationSet:
    """A collection of panel paths over a common n-state model.

    May be empty (a simulate run with zero paths writes a header-only
    file); estimation rejects empty sets at its own boundary.
    """

    n: int
    paths: tuple[PanelPath, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("panel needs at least one transient state")
        paths = tuple(self.paths)
        seen = set()
        for p in paths:
            if p.path_id in seen:
                raise ValidationError(f"duplicate path id {p.path_id!r}")
            seen.add(p.path_id)
            p.check_states(self.n)
        object.__setattr__(self, "paths", paths)

    def __len__(self) -> int:
        return len(self.paths)

    def absorbed_count(self) -> int:
        return sum(1 for p in self.paths if p.absorbed(self.n))


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
        self.seed = seed
        self.key = tuple(int(k) for k in key)

    def substream(self, *key: int) -> "RandomStream":
        return RandomStream(self.seed, self.key + tuple(key))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, *self.key]))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, key={self.key})"

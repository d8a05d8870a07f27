"""Joint estimation of (pi, Lambda, beta) from panel data by stochastic EM.

One iteration: transform the observation times to the homogeneous scale at
the current beta, reconstruct every trajectory with exact Markov bridges,
drawn by uniformization (censored paths are simulated onward to
absorption), re-estimate Lambda by
the complete-data MLEs, map the imputed absorption epochs back to calendar
time at the beta used for the transform, and refine beta by gradient
ascent.  The loop stops at the first iteration whose ascent converges in a
single update, or at the iteration cap.

Initialization treats the raw panel as if it were a continuously observed
homogeneous path (no time transform) to get Lambda0, samples a latent
absorption time for each absorbed path by bridging its final segment, and
refines beta0 on those times.  Those bridges run through the SE-step's
sweep kernel too, as one call over the absorbed paths' last two
observations (iteration key 0).

The identity family is the plain homogeneous model: the same loop with the
identity transform and no beta machinery, run for a fixed number of
iterations, returning the entrywise average of the last few Lambda
iterates (diagonal re-projected so full-generator rows sum to zero).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import (
    EstimationError,
    NumericalError,
    StructuralError,
    ValidationError,
)
from .generator import InitialDistribution, SubIntensityMatrix
from .likelihood import (
    BetaObjective,
    SufficientStatistics,
    _mle_rates,
    flat_statistics,
    gd_solve,
    mle_generator,
)
from .paths import HOMOGENEOUS, ContinuousPath, FlatPaths, PanelObservationSet, RandomStream
from .scaling import GOMPERTZ, IDENTITY, WEIBULL, ScalingFamily
from .simulate import _bridge_table, _check_absorbable, bridge_model

# jumps kept per completed path, and virtual jumps per bridge
_PATH_CAP = 1 << 16
_VIRTUAL_CAP = 1 << 16

_FAMILIES = (GOMPERTZ, WEIBULL, IDENTITY)


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of the estimation procedure.

    The one declaration of the estimation settings: a config file sets
    ``beta0`` in ``[model]`` and every other field but ``family`` in
    ``[estimation]``, under the field's name (see ``read_config``).  The
    identity family fits the plain homogeneous model, which uses
    ``homog_iterations`` and ``homog_tail_average`` in place of the beta
    settings.
    """

    family: str
    beta0: float = 1.0
    eta: float = 1e-6
    e_ell: float = 0.01
    beta_min: float = 1e-5
    max_sem_iterations: int = 200
    gd_max_steps: int = 100_000
    seed: int = 0
    homog_iterations: int = 300
    homog_tail_average: int = 20

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}"
            )
        if not (0.0 < self.eta < np.inf and 0.0 < self.e_ell < np.inf):
            raise ValidationError("eta and e_ell must be positive and finite")
        if not (0.0 < self.beta_min <= self.beta0 < np.inf):
            raise ValidationError("need finite beta0 >= beta_min > 0")
        if self.max_sem_iterations < 1 or self.gd_max_steps < 1:
            raise ValidationError("iteration caps must be positive")
        if not (1 <= self.homog_tail_average <= self.homog_iterations):
            raise ValidationError(
                "need 1 <= homog_tail_average <= homog_iterations"
            )
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass(frozen=True)
class SweepWork:
    """Deterministic work counters of one SE-step: virtual jumps drawn by
    the bridges, jumps in the completed paths, completed paths whose last
    observation is transient, and bridge normalizers computed."""

    virtual_jumps: int
    jumps_kept: int
    censored: int
    series: int


@dataclass(frozen=True)
class IterationRecord:
    """One row of the fit trace, with the work of its sweep when the fit
    ran it (a trace read back from a report has none)."""

    iteration: int
    gd_updates: int
    absorbed_paths: int
    beta_hat: float | None
    lam_hat: SubIntensityMatrix
    work: SweepWork | None = None


@dataclass(frozen=True)
class FitResult:
    pi_hat: InitialDistribution
    lam_hat: SubIntensityMatrix
    beta_hat: float | None
    iterations_used: int
    termination: str  # single-update-converged | max-iterations
    trace: tuple[IterationRecord, ...]
    config: FitConfig
    completed: FlatPaths | None = None  # the last sweep's paths, homogeneous timeline
    init_work: SweepWork | None = None  # initialization's sweep, None when it ran none


@dataclass(frozen=True)
class SemIterationResult:
    lam_hat: SubIntensityMatrix
    beta_hat: float | None
    gd_updates: int
    absorption_times: np.ndarray  # calendar timeline
    paths: FlatPaths  # homogeneous timeline, each path ending in its absorption
    work: SweepWork

    @cached_property
    def completed(self) -> tuple[ContinuousPath, ...]:
        """The completed trajectories, built on first access."""
        return tuple(self.paths)


class _PanelArrays:
    """Panel data in kernel-friendly arrays (0-based states).

    ``flat_times``/``flat_states0`` hold every path's observations end to
    end, path k at ``starts[k]:starts[k + 1]``; ``times`` and ``states0``
    are per-path views of them, split on first access.  ``keys`` holds
    each path's stream key, its index k.  ``data`` is the panel itself.

    ``epochs`` are the distinct observation times, ``flat_times ==
    epochs[epoch_index]``, so a sweep maps only those.  ``groups[i]``
    numbers the distinct (calendar interval, observed state pair) of the
    segment from observation i to i + 1, -1 at a path's last observation:
    the bridges of one group share their normalizer within a sweep, which
    looks it up by this number alone.
    """

    def __init__(self, data: PanelObservationSet):
        if len(data) == 0:
            raise ValidationError("cannot fit an empty panel")
        self.data = data
        self.n = data.n
        self.ids = data.ids
        self.flat_times = data.times
        self.flat_states0 = data.states - 1
        self.starts = data.starts
        self.absorbed = data.absorbed
        # not np.unique, which without flags imports numpy.ma
        self.censored_last = np.flatnonzero(
            np.bincount(self.flat_states0[self.starts[1:] - 1][~self.absorbed])
        ).tolist()
        self.K = len(data)
        self.keys = np.arange(self.K, dtype=np.int64)
        self.epochs, self.epoch_index = np.unique(self.flat_times, return_inverse=True)
        seg = np.ones(self.flat_times.size, dtype=bool)
        seg[self.starts[1:] - 1] = False
        i = np.flatnonzero(seg)
        e, x, size = self.epoch_index, self.flat_states0, self.n + 1
        code = ((e[i] * self.epochs.size + e[i + 1]) * size + x[i]) * size + x[i + 1]
        self.groups = np.full(self.flat_times.size, -1, dtype=np.int64)
        self.groups[i] = np.unique(code, return_inverse=True)[1]

    @cached_property
    def times(self) -> list[np.ndarray]:
        return np.split(self.flat_times, self.starts[1:-1])

    @cached_property
    def states0(self) -> list[np.ndarray]:
        return np.split(self.flat_states0, self.starts[1:-1])


def empirical_pi(data: PanelObservationSet) -> InitialDistribution:
    """Fraction of paths starting in each transient state."""
    if len(data) == 0:
        raise ValidationError("cannot fit an empty panel")
    first = data.states[data.starts[:-1]]
    dead = np.flatnonzero(first == data.n + 1)
    if dead.size:
        raise ValidationError(f"path {data.ids[dead[0]]} starts in the absorbing state")
    return InitialDistribution(np.bincount(first - 1, minlength=data.n) / len(data))


def _naive_statistics(panel: _PanelArrays) -> SufficientStatistics:
    """The statistics of the panel read as if continuously observed: jumps
    exactly at the observation times where the state changes, each path
    ending at its last observation."""
    return flat_statistics(
        panel.flat_times, panel.flat_states0, panel.starts,
        panel.flat_times[panel.starts[1:] - 1], panel.n,
    )


def initialize(
    data: PanelObservationSet | _PanelArrays,
    cfg: FitConfig,
    rng: RandomStream,
    beta_trace: list | None = None,
) -> tuple[InitialDistribution, SubIntensityMatrix, float]:
    """Starting point of the SEM loop: (pi_hat, Lambda0, refined beta).

    Lambda0 comes from the MLEs applied to the naive continuous reading of
    the panel.  For each absorbed path a latent absorption time is drawn
    by bridging its final segment (so it falls between the last two
    observation points), and beta0 is refined by ascent on those times.
    With no absorbed paths the refinement is skipped with a warning.
    """
    return _initialize(data, cfg, rng, beta_trace)[:3]


def _initialize(
    data: PanelObservationSet | _PanelArrays,
    cfg: FitConfig,
    rng: RandomStream,
    beta_trace: list | None = None,
) -> tuple[InitialDistribution, SubIntensityMatrix, float, SweepWork | None]:
    """:func:`initialize`, with the work of its sweep (None when it ran
    none)."""
    panel = data if isinstance(data, _PanelArrays) else _PanelArrays(data)
    pi_hat = empirical_pi(panel.data)
    lam0 = mle_generator(_naive_statistics(panel), panel.K)[1]
    if cfg.family == IDENTITY:
        return pi_hat, lam0, cfg.beta0, None
    times, work = _init_absorption_times(panel, lam0, rng)
    if times.size == 0:
        warnings.warn(
            "no absorbed paths: keeping beta0 unrefined", RuntimeWarning
        )
        return pi_hat, lam0, cfg.beta0, work
    obj = BetaObjective(cfg.family, pi_hat, lam0, times)
    beta_hat, _steps = gd_solve(
        obj, cfg.beta0, cfg.eta, cfg.e_ell, cfg.beta_min, cfg.gd_max_steps,
        trace=beta_trace,
    )
    return pi_hat, lam0, beta_hat, work


def _init_absorption_times(
    panel: _PanelArrays, lam0: SubIntensityMatrix, rng: RandomStream
) -> tuple[np.ndarray, SweepWork | None]:
    """Latent absorption epochs for absorbed paths, bridged on the raw
    timeline under the naive generator, and the work of their sweep: one
    sweep over the absorbed paths' last two observations, path k drawing
    from ``rng.substream(0, k)``.  With no absorbed path no sweep runs,
    and the work is None."""
    keys = np.flatnonzero(panel.absorbed)
    if keys.size == 0:
        return np.empty(0), None
    last = panel.starts[keys + 1]
    rows = np.column_stack((last - 2, last - 1)).ravel()
    starts = np.arange(0, rows.size + 1, 2)
    _stats, paths, work = _sweep(
        panel, keys, panel.flat_times[rows], panel.flat_states0[rows], starts,
        panel.groups[rows], bridge_model(lam0), rng, 0,
    )
    return paths.end_times, work


def _sweep(
    panel: _PanelArrays,
    keys: np.ndarray,
    obs_s: np.ndarray,
    obs_x: np.ndarray,
    starts: np.ndarray,
    groups: np.ndarray,
    model: tuple,
    rng: RandomStream,
    iteration: int,
) -> tuple[tuple, FlatPaths, SweepWork]:
    """Complete the panel paths ``keys`` with one ``complete_sweep`` call
    under the chain ``model`` of :func:`bridge_model`.

    Path j of the call is observed at ``obs_s[starts[j]:starts[j + 1]]``
    in the 0-based states ``obs_x[...]``: the last observations of panel
    path ``keys[j]``, which draws from ``rng.substream(iteration,
    keys[j])``; ``groups`` are the panel's bridge groups of those
    observations.  Returns the pooled statistics ``(B, N_xy, N_x, R_x)``,
    the completed trajectories and the work counters; a failure raises the
    error naming the panel path and segment.
    """
    cum, total, mu, ptrans = model
    status, j, seg, work, stats, flat = _kernels.complete_sweep(
        _kernels.stream_words(rng.seed, *rng.key), iteration, keys, obs_s, obs_x, starts,
        groups, cum, total, panel.n, mu, ptrans, _VIRTUAL_CAP, _PATH_CAP,
    )
    if status == 0:
        times, states, bounds = flat
        paths = FlatPaths(panel.n, times, states, bounds, times[bounds[1:] - 1], HOMOGENEOUS)
        censored = int(np.count_nonzero(obs_x[starts[1:] - 1] != panel.n))
        work = SweepWork(work[0], times.size - keys.size, censored, work[1])
        return stats, paths, work
    k = keys[j]
    if status == 3:
        raise StructuralError(
            f"path {panel.ids[k]}: dead-end state {int(obs_x[starts[j + 1] - 1]) + 1} "
            "cannot reach absorption"
        )
    if status == 2:
        raise NumericalError(f"path {panel.ids[k]}: completion exceeded {_PATH_CAP} jumps")
    at = starts[j] + seg
    skipped = panel.starts[k + 1] - panel.starts[k] - (starts[j + 1] - starts[j])
    bridge = (
        f"path {panel.ids[k]}, segment {int(skipped + seg)}: bridge from state "
        f"{int(obs_x[at]) + 1} to state {int(obs_x[at + 1]) + 1} over duration "
        f"{float(obs_s[at + 1] - obs_s[at]):g}"
    )
    if status == 1:
        raise StructuralError(f"{bridge} has probability 0 under this generator")
    if status == 4:
        raise NumericalError(f"{bridge} needs more than {_VIRTUAL_CAP} virtual jumps")
    raise NumericalError(f"{bridge} runs out of floating-point resolution")


def _complete_all(
    panel: _PanelArrays,
    lam: SubIntensityMatrix,
    family: ScalingFamily,
    rng: RandomStream,
    iteration: int,
) -> tuple[tuple, FlatPaths, SweepWork]:
    """SE-step: reconstruct every path on the homogeneous timeline.

    ``lam`` is checked here, once; the reachability check and the bridge
    chain read its entries and exit rates.  One sweep completes every path
    once, in panel order, path k drawing from the stream of
    ``rng.substream(iteration, k)``.  Only the distinct observation epochs
    go through ``g_inv``, unchecked: ``_PanelArrays`` checked them.
    Returns what ``_sweep`` returns.
    """
    entries, exit_rates = lam.entries, lam.exit_rates()
    if panel.censored_last:
        _check_absorbable(entries, exit_rates, panel.censored_last)
    return _sweep(
        panel, panel.keys, family._g_inv(panel.epochs)[panel.epoch_index], panel.flat_states0,
        panel.starts, panel.groups, _bridge_table(entries, exit_rates), rng, iteration,
    )


def sem_iteration(
    data: PanelObservationSet | _PanelArrays,
    pi_hat: InitialDistribution,
    lam_hat: SubIntensityMatrix,
    beta_hat: float | None,
    cfg: FitConfig,
    rng: RandomStream,
    iteration_index: int,
    beta_trace: list | None = None,
) -> SemIterationResult:
    """One SEM sweep from the current (pi, Lambda, beta) state.

    Observation times are transformed at the incoming beta; the imputed
    absorption epochs are mapped back at that same beta before it is
    updated (matching the order of the estimation procedure).
    """
    panel = data if isinstance(data, _PanelArrays) else _PanelArrays(data)
    update_beta = cfg.family != IDENTITY
    if update_beta and beta_hat is None:
        raise ValidationError(f"beta_hat is required for the {cfg.family} family")
    family = ScalingFamily(cfg.family, beta_hat) if update_beta else ScalingFamily(IDENTITY)
    try:
        stats, paths, work = _complete_all(panel, lam_hat, family, rng, iteration_index)
        new_lam = SubIntensityMatrix(_mle_rates(*stats[1:]))
        abs_cal = family._g(paths.end_times)
        if not update_beta:
            return SemIterationResult(new_lam, None, 0, abs_cal, paths, work)
        obj = BetaObjective(cfg.family, pi_hat, new_lam, abs_cal)
        new_beta, gd_updates = gd_solve(
            obj, beta_hat, cfg.eta, cfg.e_ell, cfg.beta_min, cfg.gd_max_steps,
            trace=beta_trace,
        )
        return SemIterationResult(
            new_lam, new_beta, gd_updates, abs_cal, paths, work
        )
    except EstimationError as err:
        err.args = (f"iteration {iteration_index}: {err.args[0]}",) + err.args[1:]
        raise


def fit(
    data: PanelObservationSet,
    cfg: FitConfig,
    rng: RandomStream | None = None,
    beta_trace: list | None = None,
    keep_completed: bool = False,
) -> FitResult:
    """Full estimation procedure on a panel data set.

    Runs initialization then SEM iterations until one converges with a
    single ascent update or ``max_sem_iterations`` is reached (reported in
    ``termination``, not raised).  The identity family instead runs
    exactly ``homog_iterations`` sweeps and returns the entrywise mean of
    the last ``homog_tail_average`` Lambda iterates, diagonal re-projected
    so full-generator rows sum to zero, and no ``beta_hat``.
    ``beta_trace`` collects (step, beta, loglik, grad) rows across all
    ascent runs; ``keep_completed`` retains the last iteration's
    reconstructed paths.
    """
    if rng is None:
        rng = RandomStream(cfg.seed)
    panel = _PanelArrays(data)
    absorbed_paths = int(panel.absorbed.sum())
    pi_hat, lam_hat, beta_hat, init_work = _initialize(panel, cfg, rng, beta_trace)
    homogeneous = cfg.family == IDENTITY
    if homogeneous:
        beta_hat = None
    sweeps = cfg.homog_iterations if homogeneous else cfg.max_sem_iterations
    trace: list[IterationRecord] = []
    termination = "max-iterations"
    for it in range(1, sweeps + 1):
        step = sem_iteration(
            panel, pi_hat, lam_hat, beta_hat, cfg, rng, it, beta_trace=beta_trace
        )
        lam_hat, beta_hat = step.lam_hat, step.beta_hat
        trace.append(
            IterationRecord(it, step.gd_updates, absorbed_paths, beta_hat, lam_hat, step.work)
        )
        if step.gd_updates == 1:
            termination = "single-update-converged"
            break
    if homogeneous:
        lam_hat = _tail_average(trace, cfg.homog_tail_average)
    return FitResult(
        pi_hat=pi_hat,
        lam_hat=lam_hat,
        beta_hat=beta_hat,
        iterations_used=len(trace),
        termination=termination,
        trace=tuple(trace),
        config=cfg,
        completed=step.paths if keep_completed else None,
        init_work=init_work,
    )


def _tail_average(records: list[IterationRecord], tail: int) -> SubIntensityMatrix:
    mats = np.stack([r.lam_hat.entries for r in records[-tail:]])
    mean = mats.mean(axis=0)
    off = np.where(np.eye(mean.shape[0], dtype=bool), 0.0, mean)
    exit_mean = np.maximum(-mats.sum(axis=2).mean(axis=0), 0.0)
    np.fill_diagonal(off, -(off.sum(axis=1) + exit_mean))
    return SubIntensityMatrix(off)

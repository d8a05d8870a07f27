"""Preset simulation studies: simulate, fit per horizon, test fit quality.

A study simulates K continuous trajectories once up to the largest
observation window, then for each configured window T discretizes them on
a fixed grid over [0, T], fits the model to the resulting panel, and runs
a two-sample KS test of the exact absorption times observed within the
window against an equal-sized sample of fitted-model trajectories run all
the way to absorption.

Substream layout under the study seed: path k of the generating run draws
from key (0, k); the fit for horizon index j draws under key (1, j); the
fitted-model comparison sample for horizon j draws path k under
key (2, j, k).  Each of the two simulations is one kernel call
(``simulate.simulate_paths``); ``simulate_cohort`` returns its paths flat,
as ``FlatPaths``, which index as ``ContinuousPath`` objects built on access.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .estimator import FitConfig, FitResult, fit
from .generator import InitialDistribution, SubIntensityMatrix
from .gof import KsResult, SampleSet, ks_two_sample
from .paths import FlatPaths, PanelObservationSet, RandomStream
from .scaling import GOMPERTZ, WEIBULL, ScalingFamily
from .simulate import observe, simulate_paths
from . import panelio
from .panelio import _G17, _atomic_write


@dataclass(frozen=True)
class StudyPreset:
    """True parameters plus sampling and estimation settings for one study."""

    name: str
    family: str
    pi: InitialDistribution
    lam: SubIntensityMatrix
    beta: float
    horizons: tuple[float, ...]  # observation windows, longest first
    delta: float
    paths: int
    beta0: float
    eta: float
    e_ell: float

    def fit_config(self, seed: int) -> FitConfig:
        return FitConfig(
            family=self.family,
            beta0=self.beta0,
            eta=self.eta,
            e_ell=self.e_ell,
            seed=seed,
        )


GOMPERTZ_STUDY = StudyPreset(
    name="gompertz",
    family=GOMPERTZ,
    pi=InitialDistribution(np.array([0.0451, 0.1303, 0.8246])),
    lam=SubIntensityMatrix(
        np.array(
            [
                [-0.1357, 0.1214, 0.0],
                [0.0130, -0.0421, 0.0288],
                [0.1415, 0.0184, -0.1620],
            ]
        )
    ),
    beta=0.1019,
    horizons=(60.0, 47.0, 39.0, 36.0),
    delta=1.0,
    paths=1000,
    beta0=1.0,
    eta=1e-6,
    e_ell=0.01,
)

WEIBULL_STUDY = StudyPreset(
    name="weibull",
    family=WEIBULL,
    pi=InitialDistribution(np.array([0.5, 0.5])),
    lam=SubIntensityMatrix(np.array([[-3.0, 0.1], [0.01, -0.1]])),
    beta=3.0,
    horizons=(5.0,),
    delta=0.1,
    paths=1000,
    beta0=2.0,
    eta=1e-4,
    e_ell=0.01,
)

PRESETS = {p.name: p for p in (GOMPERTZ_STUDY, WEIBULL_STUDY)}


def uniform_grid(horizon: float, delta: float) -> np.ndarray:
    """Observation epochs 0, delta, 2*delta, ... capped at the horizon."""
    if delta <= 0 or horizon <= 0:
        raise ValidationError("grid needs positive delta and horizon")
    count = int(np.floor(horizon / delta + 1e-9))
    grid = np.arange(count + 1, dtype=float) * delta
    if grid[-1] > horizon:  # float slop in count*delta
        grid[-1] = horizon
    return grid


def simulate_cohort(
    pi: InitialDistribution,
    lam: SubIntensityMatrix,
    family: ScalingFamily,
    horizon: float,
    count: int,
    stream: RandomStream,
    key_prefix: tuple = (0,),
) -> FlatPaths:
    """Independent trajectories; path k draws under key ``(*key_prefix, k)``."""
    return simulate_paths(lam, pi, family, horizon, stream.substream(*key_prefix), count)


def cohort_panel(cohort: FlatPaths, grid: np.ndarray) -> PanelObservationSet:
    if not len(cohort):
        raise ValidationError("empty cohort")
    return observe(cohort, grid, [f"p{k}" for k in range(len(cohort))])


def absorption_times_within(cohort: FlatPaths, horizon: float) -> np.ndarray:
    """Exact absorption epochs of cohort members absorbed by the horizon."""
    ends = cohort.end_times[cohort.absorbed]
    return ends[ends <= horizon]


def fitted_absorption_sample(
    pi: InitialDistribution,
    lam: SubIntensityMatrix,
    family: ScalingFamily,
    target: int,
    stream: RandomStream,
    key_prefix: tuple,
) -> np.ndarray:
    """Absorption times of ``target`` fitted-model trajectories.

    Every trajectory is run until absorption (no observation window), so
    the sample carries the fitted model's full right tail.  Comparing it
    against a window-truncated observed sample is deliberate: a fit
    estimated from a short window gets punished for the absorption mass
    it places beyond that window.
    """
    return simulate_paths(lam, pi, family, np.inf, stream.substream(*key_prefix), target).end_times


@dataclass(frozen=True)
class HorizonOutcome:
    """Everything produced for one observation window of a study."""

    horizon: float
    grid: np.ndarray
    panel: PanelObservationSet
    result: FitResult
    absorbed_paths: int
    truth_times: np.ndarray
    fitted_times: np.ndarray
    ks: KsResult | None


@dataclass(frozen=True)
class StudyOutcome:
    preset: StudyPreset
    seed: int
    horizons: tuple[HorizonOutcome, ...]


def run_study(
    preset: StudyPreset,
    seed: int,
    paths: int | None = None,
    horizons: tuple[float, ...] | None = None,
) -> StudyOutcome:
    """Simulate once, then fit and score each observation window."""
    if paths is not None or horizons is not None:
        preset = replace(
            preset,
            paths=preset.paths if paths is None else paths,
            horizons=preset.horizons if horizons is None else tuple(horizons),
        )
    if preset.paths < 1:
        raise ValidationError("study needs at least one path")
    stream = RandomStream(seed)
    true_family = ScalingFamily(preset.family, preset.beta)
    t_max = max(preset.horizons)
    cohort = simulate_cohort(
        preset.pi, preset.lam, true_family, t_max, preset.paths, stream
    )
    outcomes = []
    for j, horizon in enumerate(preset.horizons):
        grid = uniform_grid(horizon, preset.delta)
        panel = cohort_panel(cohort, grid)
        result = fit(panel, preset.fit_config(seed), rng=stream.substream(1, j))
        truth = absorption_times_within(cohort, grid[-1])
        if truth.size > 0:
            fitted_family = ScalingFamily(preset.family, result.beta_hat)
            fitted = fitted_absorption_sample(
                result.pi_hat,
                result.lam_hat,
                fitted_family,
                truth.size,
                stream,
                key_prefix=(2, j),
            )
            ks = ks_two_sample(SampleSet(truth), SampleSet(fitted))
        else:
            fitted = np.empty(0)
            ks = None
        outcomes.append(
            HorizonOutcome(
                horizon=horizon,
                grid=grid,
                panel=panel,
                result=result,
                absorbed_paths=panel.absorbed_count(),
                truth_times=truth,
                fitted_times=fitted,
                ks=ks,
            )
        )
    return StudyOutcome(preset=preset, seed=seed, horizons=tuple(outcomes))


# ---------------------------------------------------------------------------
# study output files


def _horizon_tag(h: float) -> str:
    return f"T{h:g}"


def _lambda_headers(n: int) -> list[str]:
    return [f"lambda_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]


def format_estimates_table(outcome: StudyOutcome) -> str:
    """Per-window parameter estimates with a leading true-value row."""
    n = outcome.preset.lam.n
    lines = [",".join(["T", "beta_hat"] + _lambda_headers(n) + ["seed"])]
    true_row = ["true", _G17 % outcome.preset.beta]
    true_row += [_G17 % v for v in outcome.preset.lam.entries.ravel()]
    lines.append(",".join(true_row + [""]))
    for h in outcome.horizons:
        row = [f"{h.horizon:g}", _G17 % h.result.beta_hat]
        row += [_G17 % v for v in h.result.lam_hat.entries.ravel()]
        row.append(str(outcome.seed))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def format_results_table(outcome: StudyOutcome) -> str:
    """Per-window sample diagnostics: absorbed count, iterations, KS p."""
    lines = ["T,absorbed_paths,iteration,p_value,seed"]
    for h in outcome.horizons:
        p = "" if h.ks is None else _G17 % h.ks.p_value
        lines.append(
            f"{h.horizon:g},{h.absorbed_paths},{h.result.iterations_used},"
            f"{p},{outcome.seed}"
        )
    return "\n".join(lines) + "\n"


def format_parameters_table(outcome: StudyOutcome) -> str:
    """Long-format true-vs-estimate table for single-window studies."""
    h = outcome.horizons[0]
    n = outcome.preset.lam.n
    rows = [("beta", outcome.preset.beta, h.result.beta_hat)]
    for i in range(n):
        for j in range(n):
            rows.append(
                (
                    f"lambda_{i + 1}_{j + 1}",
                    outcome.preset.lam.entries[i, j],
                    h.result.lam_hat.entries[i, j],
                )
            )
    lines = ["parameter,true_value,estimator,seed"]
    for name, true_v, est in rows:
        lines.append(f"{name},{_G17 % true_v},{_G17 % est},{outcome.seed}")
    return "\n".join(lines) + "\n"


def write_study(outcome: StudyOutcome, out_dir) -> None:
    """Write per-window artifacts plus the study-level summary tables."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    preset = outcome.preset
    for h in outcome.horizons:
        sub = os.path.join(out_dir, _horizon_tag(h.horizon))
        os.makedirs(sub, exist_ok=True)
        panelio.write_panel(h.panel, os.path.join(sub, "panel.csv"))
        _atomic_write(
            os.path.join(sub, "truth.txt"),
            panelio.format_truth(
                preset.pi,
                preset.lam,
                preset.family,
                preset.beta,
                outcome.seed,
                h.truth_times,
            ),
        )
        panelio.write_report(
            h.result, preset.lam.n, len(h.panel), os.path.join(sub, "report.txt")
        )
        if h.ks is not None:
            _atomic_write(
                os.path.join(sub, "gof.csv"),
                panelio.format_gof(
                    h.ks.statistic, h.ks.p_value, h.ks.n_a, h.ks.n_b
                ),
            )
            _atomic_write(
                os.path.join(sub, "ecdf.csv"),
                panelio.format_ecdf(h.truth_times, h.fitted_times),
            )
    _atomic_write(
        os.path.join(out_dir, "estimates.csv"), format_estimates_table(outcome)
    )
    _atomic_write(
        os.path.join(out_dir, "results.csv"), format_results_table(outcome)
    )
    if len(outcome.horizons) == 1:
        _atomic_write(
            os.path.join(out_dir, "parameters.csv"),
            format_parameters_table(outcome),
        )

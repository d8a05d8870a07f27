"""Command-line surface: simulate, fit, gof, study.

Exit status taxonomy: 0 success, 2 input or configuration error,
3 estimation failure, 4 internal numerical failure.  The seed is the
``--seed`` flag, then the config file's ``[estimation] seed``, then 0.
All commands are batch: fixed inputs in, files out, bitwise reproducible
for a fixed seed and config.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import fields, replace

import numpy as np

from . import panelio
from .errors import (
    ConfigError,
    EstimationError,
    NumericalError,
    ValidationError,
)
from .estimator import fit
from .gof import SampleSet, ks_two_sample
from .panelio import RunConfig, read_config, read_panel
from .paths import PanelObservationSet, RandomStream
from .scaling import IDENTITY, ScalingFamily
from .studies import (
    PRESETS,
    absorption_times_within,
    cohort_panel,
    fitted_absorption_sample,
    run_study,
    simulate_cohort,
    write_study,
)


def _resolve_seed(flag_seed: int | None, cfg: RunConfig | None) -> int:
    if flag_seed is not None:
        return flag_seed
    if cfg is not None and cfg.seed is not None:
        return cfg.seed
    return 0


def _simulation_family(cfg: RunConfig) -> ScalingFamily:
    if cfg.homogeneous:
        return ScalingFamily(IDENTITY)
    if cfg.true_beta is None:
        raise ConfigError(
            "[model] beta is required to simulate a time-scaled model"
        )
    return ScalingFamily(cfg.family, cfg.true_beta)


def cmd_simulate(args) -> int:
    cfg = read_config(args.config)
    seed = _resolve_seed(args.seed, cfg)
    if cfg.true_pi is None or cfg.true_lambda is None:
        raise ConfigError("[model] pi and lambda are required for simulation")
    if cfg.paths is None:
        raise ConfigError("[study] paths is required for simulation")
    grid = cfg.observation_grid()
    horizon = cfg.horizon if cfg.horizon is not None else float(grid[-1])
    if grid[-1] > horizon:
        raise ConfigError("observation grid extends past the horizon")
    family = _simulation_family(cfg)
    stream = RandomStream(seed)
    if cfg.paths == 0:
        warnings.warn("paths = 0: writing a header-only panel")
        panel = PanelObservationSet(cfg.n, (), [], [], [0])
        truth_times = np.empty(0)
    else:
        cohort = simulate_cohort(
            cfg.true_pi, cfg.true_lambda, family, horizon, cfg.paths, stream
        )
        panel = cohort_panel(cohort, grid)
        truth_times = absorption_times_within(cohort, float(grid[-1]))
    panelio.write_panel(panel, args.out)
    truth_path = args.truth_out or _default_truth_path(args.out)
    panelio._atomic_write(
        truth_path,
        panelio.format_truth(
            cfg.true_pi,
            cfg.true_lambda,
            cfg.family,
            cfg.true_beta,
            seed,
            truth_times,
        ),
    )
    return 0


def _default_truth_path(panel_out: str) -> str:
    stem, _ext = os.path.splitext(os.fspath(panel_out))
    return stem + ".truth.txt"


def cmd_fit(args) -> int:
    cfg = read_config(args.config)
    seed = _resolve_seed(args.seed, cfg)
    panel = read_panel(args.panel, cfg.n)
    fit_cfg = cfg.fit_config(seed)
    beta_trace: list | None = [] if args.beta_trace else None
    result = fit(
        panel,
        fit_cfg,
        beta_trace=beta_trace,
        keep_completed=args.dump_paths,
    )
    os.makedirs(args.out, exist_ok=True)
    panelio.write_report(
        result, cfg.n, len(panel), os.path.join(args.out, "report.txt")
    )
    if beta_trace is not None:
        panelio._atomic_write(
            os.path.join(args.out, "beta_trace.csv"),
            panelio.format_beta_trace(beta_trace),
        )
    if args.dump_paths and result.completed is not None:
        panelio._atomic_write(
            os.path.join(args.out, "paths.csv"),
            panelio.format_path_dump(result.completed, panel.ids),
        )
    return 0


def _report_path(fit_arg: str) -> str:
    path = os.fspath(fit_arg)
    if os.path.isdir(path):
        return os.path.join(path, "report.txt")
    return path


def _observed_times(args, n: int) -> np.ndarray:
    if args.sample is not None:
        vals = panelio.read_sample(args.sample)
        if vals.size == 0:
            raise ValidationError(f"sample file {args.sample} has no values")
        return vals
    panel = read_panel(args.panel, n)
    vals = panel.times[panel.starts[1:] - 1][panel.absorbed]
    if vals.size == 0:
        raise ValidationError(
            "no absorbed paths in panel; nothing to compare against"
        )
    return vals


def cmd_gof(args) -> int:
    report = panelio.read_report(_report_path(args.fit))
    cfg = read_config(args.config) if args.config else None
    seed = _resolve_seed(args.seed, cfg)
    observed = _observed_times(args, report.n)
    if report.family == IDENTITY:
        family = ScalingFamily(IDENTITY)
    else:
        if report.beta_hat is None:
            raise ValidationError("fit report lacks beta_hat")
        family = ScalingFamily(report.family, report.beta_hat)
    simulated = fitted_absorption_sample(
        report.pi_hat,
        report.lam_hat,
        family,
        observed.size,
        RandomStream(seed),
        key_prefix=(2, 0),
    )
    ks = ks_two_sample(SampleSet(observed), SampleSet(simulated))
    panelio._atomic_write(
        args.out, panelio.format_gof(ks.statistic, ks.p_value, ks.n_a, ks.n_b)
    )
    if args.ecdf_out:
        panelio._atomic_write(
            args.ecdf_out, panelio.format_ecdf(observed, simulated)
        )
    return 0


def cmd_study(args) -> int:
    if args.name not in PRESETS:
        raise ConfigError(
            f"unknown study {args.name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    preset = PRESETS[args.name]
    # the preset fixes the model, so the file needs no [model] n
    cfg = panelio._read_config(args.config, preset.pi.n) if args.config else None
    if cfg is not None:
        # a preset takes the estimation settings it declares, and the seed
        taken = {f.name for f in fields(preset)}
        for key in cfg.settings:
            if key not in taken and key != "seed":
                raise ConfigError(f"[estimation] {key} does not apply to a preset study")
        preset = replace(
            preset,
            **{key: value for key, value in cfg.settings.items() if key in taken},
            paths=cfg.paths if cfg.paths is not None else preset.paths,
            delta=cfg.delta if cfg.delta is not None else preset.delta,
        )
    seed = _resolve_seed(args.seed, cfg)
    outcome = run_study(preset, seed, paths=args.paths)
    write_study(outcome, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iphfit",
        description=(
            "Fit time-scaled inhomogeneous phase-type models to panel data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="simulate a panel dataset from true parameters"
    )
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="panel CSV destination")
    p_sim.add_argument(
        "--truth-out", default=None, help="ground-truth report destination"
    )
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the model to a panel file")
    p_fit.add_argument("--panel", required=True)
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--out", required=True, help="report directory")
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument(
        "--beta-trace",
        action="store_true",
        help="also write the gradient-ascent trace CSV",
    )
    p_fit.add_argument(
        "--dump-paths",
        action="store_true",
        help="also write the last reconstructed continuous paths",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_gof = sub.add_parser(
        "gof", help="two-sample KS test of a fit against observed data"
    )
    src = p_gof.add_mutually_exclusive_group(required=True)
    src.add_argument("--panel", default=None)
    src.add_argument(
        "--sample", default=None, help="CSV of absorption times instead of a panel"
    )
    p_gof.add_argument("--fit", required=True, help="report directory or file")
    p_gof.add_argument("--out", required=True, help="GOF CSV destination")
    p_gof.add_argument("--config", default=None)
    p_gof.add_argument("--ecdf-out", default=None)
    p_gof.add_argument("--seed", type=int, default=None)
    p_gof.set_defaults(func=cmd_gof)

    p_study = sub.add_parser(
        "study", help="run a named simulation study end to end"
    )
    p_study.add_argument("--name", required=True, choices=sorted(PRESETS))
    p_study.add_argument("--out", required=True, help="output directory")
    p_study.add_argument("--config", default=None, help="preset overrides")
    p_study.add_argument("--seed", type=int, default=None)
    p_study.add_argument(
        "--paths", type=int, default=None, help="override the path count"
    )
    p_study.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EstimationError as err:
        print(f"estimation error: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

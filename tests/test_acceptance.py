"""End-to-end acceptance gate.

Each test evaluates one release criterion, prints one
``criterion N: PASS/FAIL - detail`` line (echoed again in the terminal
summary) and then asserts.  The study-backed criteria run the full
simulation protocol at K=1000 for five fixed seeds, so this file takes
a few minutes.
"""

import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest

import _cli
import _report
from iphfit import (
    FitConfig,
    GOMPERTZ,
    IDENTITY,
    InitialDistribution,
    RandomStream,
    ScalingFamily,
    SubIntensityMatrix,
    EstimationError,
    WEIBULL,
    fit,
    iph_cdf,
    iph_density,
    ks_two_sample,
)
from iphfit import _kernels
from iphfit.simulate import jump_model
from iphfit.studies import (
    GOMPERTZ_STUDY,
    WEIBULL_STUDY,
    cohort_panel,
    fitted_absorption_sample,
    run_study,
    simulate_cohort,
    uniform_grid,
)

SEEDS = (101, 202, 303, 404, 505)
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)


@pytest.fixture(scope="module")
def gompertz_outcomes():
    return {seed: run_study(GOMPERTZ_STUDY, seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def weibull_outcomes():
    return {seed: run_study(WEIBULL_STUDY, seed) for seed in SEEDS}


def test_criterion_1_gompertz_full_window_estimates(gompertz_outcomes):
    truth_beta = GOMPERTZ_STUDY.beta
    truth_lam = GOMPERTZ_STUDY.lam.entries
    off = ~np.eye(3, dtype=bool)
    ok = 0
    gaps = []
    for seed in SEEDS:
        h = gompertz_outcomes[seed].horizons[0]
        assert h.horizon == 60.0
        beta_gap = abs(h.result.beta_hat - truth_beta)
        lam_gap = float(np.max(np.abs(h.result.lam_hat.entries - truth_lam)[off]))
        gaps.append((beta_gap, lam_gap))
        ok += beta_gap <= 0.015 and lam_gap <= 0.03
    worst_beta = max(g for g, _ in gaps)
    worst_lam = max(g for _, g in gaps)
    passed = ok >= 4
    detail = (
        f"{ok}/5 seeds at T=60 with |beta_hat-0.1019|<=0.015 and off-diagonal "
        f"rates within 0.03 (worst gaps: beta {worst_beta:.4f}, rate {worst_lam:.4f})"
    )
    _report.record(1, passed, detail)
    assert passed, detail


def test_criterion_2_censoring_degradation(gompertz_outcomes):
    ok = 0
    notes = []
    for seed in SEEDS:
        horizons = gompertz_outcomes[seed].horizons
        counts = [h.absorbed_paths for h in horizons]
        p = {h.horizon: h.ks.p_value for h in horizons if h.ks is not None}
        decreasing = all(a > b for a, b in zip(counts, counts[1:]))
        seed_ok = decreasing and p[36.0] < 0.01 and p[60.0] > 0.2
        ok += seed_ok
        notes.append(f"seed {seed}: counts {counts}, p60 {p[60.0]:.3f}, p36 {p[36.0]:.1e}")
    passed = ok >= 4
    detail = (
        f"{ok}/5 seeds with strictly decreasing absorbed counts, p(T=36)<0.01 "
        f"and p(T=60)>0.2 [{'; '.join(notes)}]"
    )
    _report.record(2, passed, detail)
    assert passed, detail


def test_criterion_3_weibull_estimates(weibull_outcomes):
    bounds = {
        "beta": 0.3,
        (0, 0): 0.3,
        (0, 1): 0.05,
        (1, 0): 0.02,
        (1, 1): 0.05,
    }
    truth = WEIBULL_STUDY.lam.entries
    ok = 0
    notes = []
    for seed in SEEDS:
        h = weibull_outcomes[seed].horizons[0]
        est = h.result.lam_hat.entries
        seed_ok = abs(h.result.beta_hat - 3.0) <= bounds["beta"]
        for idx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            seed_ok = seed_ok and abs(est[idx] - truth[idx]) <= bounds[idx]
        seed_ok = seed_ok and h.ks is not None and h.ks.p_value > 0.05
        ok += seed_ok
        notes.append(f"seed {seed}: beta {h.result.beta_hat:.3f}, p {h.ks.p_value:.3f}")
    passed = ok >= 4
    detail = (
        f"{ok}/5 seeds within Weibull tolerances with KS p>0.05 "
        f"[{'; '.join(notes)}]"
    )
    _report.record(3, passed, detail)
    assert passed, detail


def test_criterion_4_property_suite():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-m",
            "properties",
            "-p",
            "no:cacheprovider",
            TESTS_DIR,
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_cli.env(),
        timeout=1800,
    )
    passed = proc.returncode == 0
    lines = [ln for ln in proc.stdout.strip().splitlines() if ln.strip()]
    summary = lines[-1] if lines else "no pytest output"
    detail = f"deterministic property suite, exit {proc.returncode} ({summary})"
    _report.record(4, passed, detail)
    assert passed, detail + "\n" + proc.stdout[-2000:]


def test_criterion_5_single_state_oracles():
    lam = SubIntensityMatrix(np.array([[-1.0]]))
    pi = InitialDistribution(np.array([1.0]))
    t = np.linspace(0.01, 5.0, 100)
    gaps = []

    fam = ScalingFamily(IDENTITY)
    gaps.append(np.max(np.abs(iph_density(pi, lam, fam, t) - np.exp(-t))))
    gaps.append(np.max(np.abs(iph_cdf(pi, lam, fam, t) - (1 - np.exp(-t)))))

    b = 3.0
    fam = ScalingFamily(WEIBULL, b)
    gaps.append(
        np.max(np.abs(iph_density(pi, lam, fam, t) - b * t ** (b - 1) * np.exp(-(t**b))))
    )
    gaps.append(np.max(np.abs(iph_cdf(pi, lam, fam, t) - (1 - np.exp(-(t**b))))))

    b = 0.1019
    fam = ScalingFamily(GOMPERTZ, b)
    gaps.append(
        np.max(
            np.abs(
                iph_density(pi, lam, fam, t)
                - np.exp(b * t) * np.exp(-np.expm1(b * t) / b)
            )
        )
    )
    gaps.append(
        np.max(np.abs(iph_cdf(pi, lam, fam, t) - (1 - np.exp(-np.expm1(b * t) / b))))
    )
    worst = float(max(gaps))
    forms_ok = worst <= 1e-10

    # acceptance rate of the 1-state absorption bridge over a unit interval:
    # each attempt succeeds iff the Exp(1) exit happens inside the interval
    cum, total = jump_model(lam)
    gen = RandomStream(5, (0,)).generator()
    tbuf = np.empty(64, dtype=np.float64)
    sbuf = np.empty(64, dtype=np.int64)
    attempts = 100_000
    accepted = 0
    for _ in range(attempts):
        status, _n_used, _count = _kernels.bridge_attempts(
            gen, 0, 1, 1.0, cum, total, 1, 1, tbuf, sbuf
        )
        accepted += status == 0
    rate = accepted / attempts
    target = 1 - np.exp(-1.0)
    rate_ok = abs(rate - target) <= 0.01

    passed = forms_ok and rate_ok
    detail = (
        f"closed-form worst gap {worst:.2e} (tol 1e-10); bridge acceptance "
        f"{rate:.4f} vs {target:.4f} (tol 0.01)"
    )
    _report.record(5, passed, detail)
    assert passed, detail


def test_criterion_6_scaled_fit_beats_homogeneous():
    pi = GOMPERTZ_STUDY.pi
    lam = GOMPERTZ_STUDY.lam
    true_family = ScalingFamily(GOMPERTZ, GOMPERTZ_STUDY.beta)
    grid = uniform_grid(60.0, 1.0)
    homog_cfg = FitConfig(
        family=IDENTITY,
        homog_iterations=120,
        homog_tail_average=20,
    )
    wins = 0
    notes = []
    for seed in SEEDS:
        stream = RandomStream(seed)
        cohort = simulate_cohort(pi, lam, true_family, 60.0, 300, stream)
        train, held = cohort[:150], cohort[150:]
        observed = np.asarray(
            [p.times[-1] for p in held if p.absorbed and p.times[-1] <= 60.0]
        )
        panel = cohort_panel(train, grid)
        try:
            inhom = fit(
                panel, GOMPERTZ_STUDY.fit_config(seed), rng=stream.substream(1, 0)
            )
            homog = fit(panel, homog_cfg, rng=stream.substream(1, 1))
            sample_inhom = fitted_absorption_sample(
                inhom.pi_hat,
                inhom.lam_hat,
                ScalingFamily(GOMPERTZ, inhom.beta_hat),
                observed.size,
                stream,
                (2, 0),
            )
            sample_homog = fitted_absorption_sample(
                homog.pi_hat,
                homog.lam_hat,
                ScalingFamily(IDENTITY),
                observed.size,
                stream,
                (2, 1),
            )
        except EstimationError as err:
            notes.append(f"seed {seed}: estimation failed ({err})")
            continue
        p_inhom = ks_two_sample(observed, sample_inhom).p_value
        p_homog = ks_two_sample(observed, sample_homog).p_value
        wins += p_inhom > p_homog
        notes.append(f"seed {seed}: p_scaled {p_inhom:.3f} vs p_homog {p_homog:.1e}")
    passed = wins >= 4
    detail = (
        f"{wins}/5 held-out comparisons favor the time-scaled fit "
        f"[{'; '.join(notes)}]"
    )
    _report.record(6, passed, detail)
    assert passed, detail


CLI_CONFIG = """[model]
n = 3
family = gompertz
beta0 = 1.0
beta = 0.1019
pi = 0.0451, 0.1303, 0.8246
lambda = -0.1357, 0.1214, 0.0; 0.0130, -0.0421, 0.0288; 0.1415, 0.0184, -0.1620

[estimation]
eta = 1e-6
e_ell = 0.01
seed = 11

[study]
paths = 50
horizon = 30
delta = 1
"""


def _run_cli(args, cwd):
    cmd = [*_cli.command(), *args]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=cwd, env=_cli.env(), timeout=900
    )
    assert proc.returncode == 0, (
        f"{cmd} failed with exit {proc.returncode}: {proc.stderr}"
    )


def _pipeline(root, config):
    out = root
    out.mkdir()
    _run_cli(
        ["simulate", "--config", str(config), "--out", str(out / "panel.csv")],
        cwd=out,
    )
    _run_cli(
        [
            "fit",
            "--panel",
            str(out / "panel.csv"),
            "--config",
            str(config),
            "--out",
            str(out / "fit"),
            "--beta-trace",
        ],
        cwd=out,
    )
    _run_cli(
        [
            "gof",
            "--panel",
            str(out / "panel.csv"),
            "--fit",
            str(out / "fit"),
            "--out",
            str(out / "gof.csv"),
            "--ecdf-out",
            str(out / "ecdf.csv"),
        ],
        cwd=out,
    )
    _run_cli(
        [
            "study",
            "--name",
            "weibull",
            "--out",
            str(out / "study"),
            "--seed",
            "5",
            "--paths",
            "10",
        ],
        cwd=out,
    )


def _tree_files(root):
    found = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            full = os.path.join(base, name)
            found[os.path.relpath(full, root)] = full
    return found


def test_criterion_7_cli_byte_reproducibility(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(CLI_CONFIG)
    _pipeline(tmp_path / "a", config)
    _pipeline(tmp_path / "b", config)
    files_a = _tree_files(tmp_path / "a")
    files_b = _tree_files(tmp_path / "b")
    same_names = sorted(files_a) == sorted(files_b)
    mismatched = [
        rel
        for rel in sorted(files_a)
        if rel in files_b and not filecmp.cmp(files_a[rel], files_b[rel], shallow=False)
    ]
    passed = same_names and not mismatched
    detail = (
        f"{len(files_a)} output files byte-identical across repeated "
        f"simulate/fit/gof/study runs"
        + ("" if passed else f"; mismatches: {mismatched}")
    )
    _report.record(7, passed, detail)
    assert passed, detail

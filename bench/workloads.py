"""The three workloads: their inputs, one pass of work, and its checks.

A pass is the unit the benchmark times.  Its inputs depend only on the
workload seed and the pass index, so a traced and an untraced pass with
the same index must write the same bytes.  An operation is one fit
together with its goodness-of-fit step.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TOLERANCES = os.path.join(BENCH_DIR, "tolerances.json")

# the irregular-visit panel (see README.md, "The irregular panel")
IRREGULAR_PATHS = 1000
GAP_RANGE = (0.5, 1.5)  # years between visits, uniform
DROPOUT_RANGE = (20.0, 60.0)  # years until the drop-out visit, uniform
HOMOG_ITERATIONS = 40
HOMOG_TAIL = 10

GOMPERTZ_INI = """[model]
n = {n}
family = gompertz
beta0 = {beta0!r}

[estimation]
eta = {eta!r}
e_ell = {e_ell!r}
"""

HOMOGENEOUS_INI = f"""[model]
n = {{n}}
family = homogeneous

[estimation]
homog_iterations = {HOMOG_ITERATIONS}
homog_tail_average = {HOMOG_TAIL}
"""


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for the program, fixed by the workload seed and key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def load_tolerances() -> dict:
    """Per-estimate tolerances, as spread.py wrote them."""
    with open(TOLERANCES, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class PassResult:
    ops: list[str]
    outputs: dict[str, str] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)  # op -> message
    failures: dict[str, list[str]] = field(default_factory=dict)  # op -> checks
    estimates: dict[str, tuple] = field(default_factory=dict)  # op -> (beta, lambda)
    data: object = None

    def fail(self, op: str, messages: list[str]) -> None:
        if messages:
            self.failures.setdefault(op, []).extend(messages)


def _near_truth(result: PassResult, op: str, label: str, beta, lam, tolerances: dict) -> None:
    """beta_hat and Lambda_hat near the truth; a fit without a tolerance fails."""
    if op not in tolerances:
        result.fail(op, [f"{label}: no tolerance in tolerances.json; run bench/spread.py"])
    else:
        result.fail(op, checks.near_truth(label, beta, lam, tolerances[op]))


def _cdf_check(label, pi, lam, family, beta, horizon):
    from iphfit.likelihood import iph_cdf
    from iphfit.scaling import ScalingFamily

    times = horizon * np.array([0.25, 0.5, 0.75, 1.0])
    fam = ScalingFamily(family, 1.0 if beta is None else beta)
    got = iph_cdf(pi, lam, fam, times)
    return checks.cdf(label, pi, lam, family, beta, times, got)


class StudyWorkload:
    """``run_study`` on a preset; one pass is one study with its own seed."""

    def __init__(self, name: str, preset: str, tag: int):
        self.name = name
        self.preset_name = preset
        self.tag = tag

    def prepare(self, seed: int, workdir: str, tolerances: dict) -> None:
        from iphfit import studies

        self.seed = seed
        self.preset = studies.PRESETS[self.preset_name]
        self.tolerances = tolerances.get(self.name, {})

    def ops(self) -> list[str]:
        return [f"T{h:g}" for h in self.preset.horizons]

    def run(self, index: int, outdir: str) -> PassResult:
        from iphfit import studies

        result = PassResult(ops=self.ops())
        result.data = studies.run_study(self.preset, derive_seed(self.seed, self.tag, index))
        return result

    def collect(self, result: PassResult) -> None:
        """Outputs, estimates and checks of a finished pass (not timed)."""
        from iphfit import panelio, studies

        outcome = result.data
        result.outputs["estimates.csv"] = studies.format_estimates_table(outcome)
        result.outputs["results.csv"] = studies.format_results_table(outcome)
        for op, h in zip(result.ops, outcome.horizons):
            n = outcome.preset.lam.n
            result.outputs[f"{op}/report.txt"] = panelio.format_report(h.result, n, len(h.panel))
            fit = h.result
            result.estimates[op] = (fit.beta_hat, fit.lam_hat.entries.tolist())
            label = f"{self.name} {op}"
            if h.ks is None:
                result.fail(op, [f"{label}: no absorbed path in the window"])
            else:
                result.outputs[f"{op}/gof.csv"] = panelio.format_gof(
                    h.ks.statistic, h.ks.p_value, h.ks.n_a, h.ks.n_b
                )
                result.fail(op, checks.ks(label, h.truth_times, h.fitted_times,
                                          h.ks.statistic, h.ks.p_value))
            result.fail(op, _cdf_check(label, fit.pi_hat.probabilities, fit.lam_hat.entries,
                                       self.preset.family, fit.beta_hat, h.horizon))
            _near_truth(result, op, label, fit.beta_hat, fit.lam_hat.entries, self.tolerances)
        if self.preset_name == "gompertz":
            falling = checks.strictly_falling(
                self.name, [h.absorbed_paths for h in outcome.horizons]
            )
            for op in result.ops:
                result.fail(op, falling)
            last = outcome.horizons[-1]
            if last.ks is not None:
                result.fail(result.ops[-1], checks.below(
                    f"{self.name} {result.ops[-1]} KS p", last.ks.p_value, 0.01))


def irregular_panel(seed: int, paths: int, pi, lam, beta: float):
    """A Gompertz panel with per-path random visit gaps and drop-out.

    Simulated here, apart from the program: the homogeneous jump chain is
    run to absorption and mapped to calendar time by g(s) = log1p(beta s) /
    beta.  Visits fall at uniform gaps until the drop-out time, which is
    itself a visit; the first visit at or after absorption records the
    absorbing state and ends the path.  Returns (csv text, absorbed last
    visit times).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    pi = np.asarray(pi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[0]
    out_rate = -np.diag(lam)
    moves = np.column_stack([lam - np.diag(np.diag(lam)), -lam.sum(axis=1)])
    moves = moves / out_rate[:, None]
    lines = ["path_id,time,state"]
    absorbed_at = []
    for k in range(paths):
        x = int(rng.choice(n, p=pi))
        s, epochs, states = 0.0, [0.0], [x]
        while x != n:
            s += rng.exponential(1.0 / out_rate[x])
            x = int(rng.choice(n + 1, p=moves[x]))
            epochs.append(s)
            states.append(x)
        calendar = np.log1p(beta * np.asarray(epochs)) / beta
        dropout = rng.uniform(*DROPOUT_RANGE)
        visits = [0.0]
        while True:
            v = visits[-1] + rng.uniform(*GAP_RANGE)
            if v >= dropout:
                break
            visits.append(v)
        visits.append(dropout)
        visits = np.asarray(visits)
        seen = np.asarray(states)[np.searchsorted(calendar, visits, side="right") - 1]
        if seen[-1] == n:
            stop = int(np.argmax(seen == n)) + 1
            visits, seen = visits[:stop], seen[:stop]
            absorbed_at.append(visits[-1])
        lines += [f"c{k},{t:.17g},{x + 1}" for t, x in zip(visits, seen)]
    return "\n".join(lines) + "\n", np.asarray(absorbed_at)


class IrregularCliWorkload:
    """``fit`` and ``gof`` through the command line on an irregular panel,
    once with the Gompertz family and once homogeneous."""

    name = "irregular-cli"
    tag = 4
    families = ("gompertz", "homogeneous")

    def prepare(self, seed: int, workdir: str, tolerances: dict) -> None:
        from iphfit import studies

        preset = studies.GOMPERTZ_STUDY
        self.seed = seed
        self.workdir = workdir
        self.n = preset.lam.n
        self.truth = (preset.pi.probabilities, preset.lam.entries, preset.beta)
        text, self.observed = irregular_panel(seed, IRREGULAR_PATHS, *self.truth)
        os.makedirs(workdir, exist_ok=True)
        self.panel = os.path.join(workdir, "panel.csv")
        with open(self.panel, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        self.configs = {}
        for family, template in (("gompertz", GOMPERTZ_INI), ("homogeneous", HOMOGENEOUS_INI)):
            path = os.path.join(workdir, f"{family}.ini")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(template.format(n=self.n, beta0=preset.beta0,
                                             eta=preset.eta, e_ell=preset.e_ell))
            self.configs[family] = path
        self.tolerances = tolerances.get(self.name, {})

    def ops(self) -> list[str]:
        return list(self.families)

    def run(self, index: int, outdir: str) -> PassResult:
        from iphfit import cli

        result = PassResult(ops=self.ops())
        seed = str(derive_seed(self.seed, self.tag, index))
        result.data = outdir
        for family in self.families:
            out = os.path.join(outdir, family)
            steps = (
                ["fit", "--panel", self.panel, "--config", self.configs[family],
                 "--out", out, "--seed", seed],
                ["gof", "--panel", self.panel, "--fit", out,
                 "--out", os.path.join(out, "gof.csv"),
                 "--ecdf-out", os.path.join(out, "ecdf.csv"), "--seed", seed],
            )
            for argv in steps:
                code = cli.main(argv)
                if code != 0:
                    result.errors[family] = f"{argv[0]} exited with {code}"
                    break
        return result

    def collect(self, result: PassResult) -> None:
        pvalues = {}
        for family in self.families:
            if family in result.errors:
                continue
            out = os.path.join(result.data, family)
            for name in ("report.txt", "gof.csv", "ecdf.csv"):
                with open(os.path.join(out, name), encoding="utf-8") as handle:
                    result.outputs[f"{family}/{name}"] = handle.read()
            label = f"{self.name} {family}"
            report = checks.parse_report(result.outputs[f"{family}/report.txt"])
            gof = checks.parse_gof(result.outputs[f"{family}/gof.csv"])
            pvalues[family] = gof["p"]
            observed, simulated = checks.samples_from_ecdf(
                result.outputs[f"{family}/ecdf.csv"], gof["n_observed"], gof["n_simulated"]
            )
            if not np.array_equal(observed, np.sort(self.observed)):
                result.fail(family, [f"{label}: the observed sample is not the panel's absorbed visits"])
            result.fail(family, checks.ks(label, observed, simulated, gof["d"], gof["p"]))
            kind = "identity" if family == "homogeneous" else family
            result.fail(family, _cdf_check(label, report["pi_hat"], report["lambda_hat"],
                                           kind, report["beta_hat"], DROPOUT_RANGE[1]))
            result.estimates[family] = (report["beta_hat"], report["lambda_hat"].tolist())
            if family == "gompertz":  # the homogeneous model is not the generating one
                _near_truth(result, family, label, report["beta_hat"], report["lambda_hat"],
                            self.tolerances)
        if len(pvalues) == 2:
            result.fail("homogeneous", checks.below(
                f"{self.name}: homogeneous KS p against the Gompertz one",
                pvalues["homogeneous"], pvalues["gompertz"]))


def make(name: str):
    if name == "gompertz-study":
        return StudyWorkload(name, "gompertz", tag=1)
    if name == "weibull-study":
        return StudyWorkload(name, "weibull", tag=2)
    if name == "irregular-cli":
        return IrregularCliWorkload()
    raise KeyError(name)


NAMES = ("gompertz-study", "weibull-study", "irregular-cli")

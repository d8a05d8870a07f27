"""Show that every output check of the benchmark fails on a corrupted output.

    python3 bench/selftest.py

Runs a few small real computations, checks that the untouched outputs
pass, then corrupts each output in turn and checks that the matching check
reports it.  Prints one line per corruption and exits 1 if any corruption
went unnoticed or any untouched output failed.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import sys
import tempfile
import types
import warnings

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path[:0] = [SRC, BENCH_DIR]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

RESULTS = []


def expect(name: str, clean: list, corrupted: list) -> None:
    ok = not clean and bool(corrupted)
    RESULTS.append(ok)
    shown = corrupted[0] if corrupted else "NOT DETECTED"
    print(f"{'ok ' if ok else 'BAD'} {name}: clean={len(clean)} failures, corrupted -> {shown}")
    for msg in clean:
        print(f"    clean output failed: {msg}")


def path_view(p, **changes):
    fields = {"times": np.array(p.times), "states": np.array(p.states)}
    fields.update(changes)
    return types.SimpleNamespace(**fields)


def sweep_checks() -> None:
    from iphfit import estimator, studies
    from iphfit.paths import RandomStream

    outcome = studies.run_study(studies.WEIBULL_STUDY, 5, paths=200)
    fit = outcome.horizons[0].result
    panel = estimator._PanelArrays(outcome.horizons[0].panel)
    step = estimator.sem_iteration(panel, fit.pi_hat, fit.lam_hat, fit.beta_hat,
                                   fit.config, RandomStream(5), 99)
    paths = list(step.completed)
    args = (panel.times, panel.states0, "weibull", fit.beta_hat)

    def occupancy(ps):
        return checks.completed_paths("sweep", *args, ps, panel.n)

    wrong_start = paths[:]
    first = path_view(paths[0])
    first.states[0] = 1 if first.states[0] != 1 else 2
    wrong_start[0] = first
    expect("path occupies another state at an epoch", occupancy(paths), occupancy(wrong_start))
    unabsorbed = paths[:]
    p = path_view(paths[0])
    unabsorbed[0] = path_view(paths[0], times=p.times[:-1], states=p.states[:-1])
    expect("path does not end absorbed", occupancy(paths), occupancy(unabsorbed))
    lam = step.lam_hat.entries.copy()
    lam[0, 1] *= 1 + 1e-9
    expect("M-step Lambda is not N/R",
           checks.lambda_from_counts("sweep", paths, panel.n, step.lam_hat.entries),
           checks.lambda_from_counts("sweep", paths, panel.n, lam))


def study_checks() -> None:
    from iphfit import studies

    workload = workloads.make("weibull-study")
    workload.prepare(7, "", workloads.load_tolerances())
    result = workload.run(0, "")
    outcome = result.data

    def failures(horizon):
        corrupted = dataclasses.replace(outcome, horizons=(horizon,))
        res = workloads.PassResult(ops=result.ops, data=corrupted)
        workload.collect(res)
        return [m for msgs in res.failures.values() for m in msgs]

    h = outcome.horizons[0]
    clean = failures(h)
    ks = dataclasses.replace(h.ks, statistic=h.ks.statistic + 1e-6)
    expect("KS D is not ks_2samp's", clean, failures(dataclasses.replace(h, ks=ks)))
    ks = dataclasses.replace(h.ks, p_value=h.ks.p_value * (1 + 1e-6))
    expect("KS p is not the Kolmogorov law's", clean, failures(dataclasses.replace(h, ks=ks)))
    fitted = h.fitted_times * 1.1
    expect("KS run on another sample", clean, failures(dataclasses.replace(h, fitted_times=fitted)))
    bad_fit = dataclasses.replace(h.result, beta_hat=h.result.beta_hat * 1.5)
    expect("beta_hat far from the truth", clean,
           failures(dataclasses.replace(h, result=bad_fit)))
    lam = h.result.lam_hat.entries.copy()
    lam[0, 1] *= 4.0
    lam[0, 0] -= 3.0 * h.result.lam_hat.entries[0, 1]
    bad_fit = dataclasses.replace(h.result, lam_hat=type(h.result.lam_hat)(lam))
    expect("lambda_hat far from the truth", clean,
           failures(dataclasses.replace(h, result=bad_fit)))
    tolerances, workload.tolerances = workload.tolerances, {}
    try:
        expect("no tolerance for a fit", clean, failures(h))
    finally:
        workload.tolerances = tolerances

    from iphfit import likelihood

    original = likelihood.iph_cdf
    likelihood.iph_cdf = lambda *a: original(*a) + 1e-6
    try:
        expect("iph_cdf differs from expm", clean, failures(h))
    finally:
        likelihood.iph_cdf = original
    expect("absorbed counts do not fall", checks.strictly_falling("gompertz", [1000, 984, 811, 710]),
           checks.strictly_falling("gompertz", [1000, 1000, 811, 710]))
    expect("KS p at T=36 not below 0.01", checks.below("T36", 1e-20, 0.01),
           checks.below("T36", 0.2, 0.01))


def irregular_checks() -> None:
    workload = workloads.make("irregular-cli")
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, "out")) as work:
        workload.prepare(11, work, workloads.load_tolerances())
        result = workload.run(0, os.path.join(work, "pass0"))
        workload.collect(result)
        clean = [m for msgs in result.failures.values() for m in msgs]

        def failures(family, name, edit):
            path = os.path.join(result.data, family, name)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(edit(text))
            try:
                res = workloads.PassResult(ops=result.ops, data=result.data)
                workload.collect(res)
                return [m for msgs in res.failures.values() for m in msgs]
            finally:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)

        def move_observed(text):
            lines = text.splitlines()
            prev = 0.0
            for i, line in enumerate(lines[1:], start=1):
                value, fa, fb = line.split(",")
                if float(fa) > prev:  # a value of the observed sample
                    lines[i] = ",".join([repr(float(value) + 0.25), fa, fb])
                    break
                prev = float(fa)
            return "\n".join(lines) + "\n"

        def swap_d(text):
            head, row = text.splitlines()[:2]
            fields = row.split(",")
            fields[2] = repr(float(fields[2]) + 0.01)
            return head + "\n" + ",".join(fields) + "\n"

        def homog_p(text):
            head, row = text.splitlines()[:2]
            fields = row.split(",")
            fields[3] = "0.999"
            fields[2] = repr(float(fields[2]))
            return head + "\n" + ",".join(fields) + "\n"

        def beta(text):
            return "\n".join(
                f"beta_hat,{float(ln.split(',')[1]) * 1.5!r}" if ln.startswith("beta_hat,") else ln
                for ln in text.splitlines()
            ) + "\n"

        expect("ecdf file moved an observed value", clean,
               failures("gompertz", "ecdf.csv", move_observed))
        expect("gof.csv D is not the samples' D", clean, failures("gompertz", "gof.csv", swap_d))
        order = [m for m in failures("homogeneous", "gof.csv", homog_p) if "against" in m]
        expect("homogeneous KS p not below the Gompertz p", clean, order)
        expect("report beta_hat far from the truth", clean, failures("gompertz", "report.txt", beta))


def trace_checks() -> None:
    """The traced/untraced byte comparison notices a wrapper that moves a draw."""
    from iphfit.paths import RandomStream

    workload = workloads.make("weibull-study")
    workload.prepare(3, "", workloads.load_tolerances())

    def outputs(tracer):
        result = workload.run(0, "")
        tracer.restore()
        workload.collect(result)
        return result.outputs

    plain = outputs(Tracer())
    tracer = Tracer()
    failures: list[str] = []
    layers.install_full(tracer, failures)
    traced = outputs(tracer)
    clean = [k for k in plain if plain[k] != traced[k]] + failures
    bad = Tracer()

    def skip_one(f):
        def wrapper(self):
            gen = f(self)
            gen.random()
            return gen
        return wrapper

    bad.patch_method(RandomStream, "generator", skip_one)
    moved = outputs(bad)
    expect("a wrapper that moved a draw changes the bytes", clean,
           [k for k in plain if plain[k] != moved[k]])


def main() -> int:
    warnings.simplefilter("ignore")
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    sweep_checks()
    study_checks()
    irregular_checks()
    trace_checks()
    print(f"{sum(RESULTS)} of {len(RESULTS)} corruptions detected with clean outputs passing")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of iphfit: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload gompertz-study --seed 1 --seconds 30 --trace 0

``--trace 0`` runs passes of the workload until the next one would end
after ``--seconds`` (always at least one) and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced pass with the
same inputs, checks that they wrote the same bytes, and reports the
per-layer metrics.  Every pass's outputs are checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Run records and trace files go to ``bench/out/``.
"""

import os

# one thread per workload process; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 5
# import the package and run a tiny study, which calls every kernel once
SETUP_CODE = (
    "import time, warnings\n"
    "t0 = time.perf_counter()\n"
    "import iphfit\n"
    "warnings.simplefilter('ignore')\n"
    "iphfit.run_study(iphfit.WEIBULL_STUDY, 0, paths=50)\n"
    "print(time.perf_counter() - t0)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("IPHFIT_SEED", None)
    return env


def measure_setup() -> list[float]:
    """Import plus warm-up time, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def metadata(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    from iphfit import _kernels

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": "numba" if _kernels.HAVE_NUMBA else "pure-python",
    }


def message_key(message: str) -> str:
    return re.sub(r"\d+(\.\d+)?(e[-+]?\d+)?", "#", message)


def run_pass(workload, index: int, outdir: str, tracer):
    """One timed pass; returns (result, wall seconds, warning counts)."""
    os.makedirs(outdir, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result = workload.run(index, outdir)
        except Exception as err:  # a raised error fails every operation of the pass
            result = None
            error = f"{type(err).__name__}: {err}"
        wall = time.perf_counter() - t0
        tracer.restore()
    counts = {}
    for w in caught:
        key = message_key(str(w.message))
        counts[key] = counts.get(key, 0) + 1
    if result is None:
        from workloads import PassResult

        result = PassResult(ops=workload.ops(), errors={op: error for op in workload.ops()})
    else:
        try:
            workload.collect(result)
        except Exception as err:  # an output that cannot be checked fails its pass
            for op in result.ops:
                result.fail(op, [f"checking raised {type(err).__name__}: {err}"])
    return result, wall, counts


def fit_and_sweep_times(tracer):
    """Durations of every fit, and each fit's median sweep time."""
    fit_idx, _, fit_dur = tracer.spans_of("estimator.fit")
    _, sweep_parent, sweep_dur = tracer.spans_of("estimator.sem_iteration")
    sweeps = [statistics.median(sweep_dur[sweep_parent == i]) for i in fit_idx
              if np.any(sweep_parent == i)]
    return fit_dur.tolist(), sweeps


def account(results):
    attempted = sum(len(r.ops) for r in results)
    failed = 0
    problems = []
    for r in results:
        for op in r.ops:
            if op in r.errors or op in r.failures:
                failed += 1
        problems += [f"{op}: {msg}" for op, msg in r.errors.items()]
        problems += [m for msgs in r.failures.values() for m in msgs]
    correct = not any(r.failures or r.errors for r in results)
    return attempted, failed, correct, problems


def end_to_end(workload, args, record):
    from tracing import Tracer
    import layers

    record["setup_runs_s"] = measure_setup()
    results, walls, fits, pass_fits, sweeps, warn = [], [], [], [], [], {}
    start = time.perf_counter()
    index = 0
    while True:
        tracer = Tracer()
        layers.install_light(tracer)
        result, wall, counts = run_pass(
            workload, index, os.path.join(record["workdir"], f"pass{index}"), tracer
        )
        result.data = None  # keep only the accounting: peak RSS is that of one pass
        result.outputs.clear()
        results.append(result)
        walls.append(wall)
        fit_times, sweep_medians = fit_and_sweep_times(tracer)
        fits += fit_times
        if fit_times:
            pass_fits.append(statistics.mean(fit_times))
        if sweep_medians:
            sweeps.append(statistics.mean(sweep_medians))
        for key, n in counts.items():
            warn[key] = warn.get(key, 0) + n
        index += 1
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    record.update(passes=index, pass_walls_s=walls, fit_s_all=fits, sweep_s_per_pass=sweeps,
                  warnings=warn)
    metrics = {
        "setup_s": (statistics.median(record["setup_runs_s"]), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "fit_s": (statistics.median(pass_fits) if pass_fits else 0.0, "s"),
        "sweep_s": (statistics.median(sweeps) if sweeps else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return results, metrics


def traced(workload, args, record):
    from tracing import Tracer
    import layers

    light = Tracer()
    layers.install_light(light)
    plain, wall_plain, _ = run_pass(workload, 0, os.path.join(record["workdir"], "untraced"), light)
    tracer = Tracer()
    path_failures: list[str] = []
    layers.install_full(tracer, path_failures)
    with_trace, wall_traced, counts = run_pass(
        workload, 0, os.path.join(record["workdir"], "traced"), tracer
    )
    with_trace.fail(with_trace.ops[0], path_failures)
    differing = sorted(
        k for k in set(plain.outputs) | set(with_trace.outputs)
        if plain.outputs.get(k) != with_trace.outputs.get(k)
    )
    if differing:
        with_trace.fail(with_trace.ops[0], [f"traced run wrote different bytes: {differing}"])
    bench_s = tracer.total_time("bench.check") + tracer.total_time("bench.count")
    values = layers.per_layer(tracer, counts)
    values["trace.overhead_s"] = wall_traced - bench_s - wall_plain
    values["trace.spans"] = len(tracer.start)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
    record.update(untraced_wall_s=wall_plain, traced_wall_s=wall_traced, bench_work_s=bench_s,
                  warnings=counts, identical_outputs=not differing,
                  output_files=sorted(plain.outputs))
    return [plain, with_trace], {k: (v, layers.unit(k)) for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "iphfit", "__init__.py")):
        print(f"error: no iphfit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if not os.path.isfile(workloads.TOLERANCES):
        print(f"error: missing {workloads.TOLERANCES}; run bench/spread.py", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import iphfit

    with warnings.catch_warnings():  # warm-up: imports done, kernels compiled
        warnings.simplefilter("ignore")
        iphfit.run_study(iphfit.WEIBULL_STUDY, 0, paths=50)

    workload = workloads.make(args.workload)
    workdir = os.path.join(OUT, f"work-{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    record = metadata(args.workload, args.seed)
    record.update(trace=args.trace, seconds=args.seconds, workdir=workdir)
    workload.prepare(args.seed, workdir, workloads.load_tolerances())
    if args.trace:
        results, metrics = traced(workload, args, record)
    else:
        results, metrics = end_to_end(workload, args, record)
    attempted, failed, correct, problems = account(results)
    record.update(attempted=attempted, failed=failed, correct=correct, problems=problems,
                  metrics={k: v for k, (v, _u) in metrics.items()})
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for line in problems[:20]:
        print(f"problem: {line}")
    print(json.dumps({k: record[k] for k in (
        "workload", "backend", "git_sha", "nproc", "python", "numpy", "scipy")}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

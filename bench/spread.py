"""Recompute the seed-to-seed spread of the estimates and the tolerances.

    python3 bench/spread.py

Runs pass 0 of each workload for every seed in SEEDS, one process per
usable CPU, exactly as the benchmark
does, and writes ``bench/tolerances.json``: for every fit whose model is
the generating one, the true beta and Lambda, the mean and standard
deviation of the estimates, and the tolerance the benchmark's check
allows, FACTOR times the root-mean-square error around the true value
(at least FLOOR).  The homogeneous fit of ``irregular-cli`` is left out:
its model is not the generating one.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import multiprocessing
import sys
import tempfile
import warnings

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path[:0] = [SRC, BENCH_DIR]

import workloads  # noqa: E402

SEEDS = range(9000, 9012)
FACTOR = 6.0
FLOOR = 1e-3


def estimates(task):
    name, seed = task
    warnings.simplefilter("ignore")
    workload = workloads.make(name)
    out = os.path.join(BENCH_DIR, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="spread-") as work:
        workload.prepare(seed, work, {})  # no near-truth check: only the estimates are read
        result = workload.run(0, os.path.join(work, "pass0"))
        workload.collect(result)
    return name, seed, result.estimates, result.errors


def truth(name):
    from iphfit import studies

    preset = studies.WEIBULL_STUDY if name == "weibull-study" else studies.GOMPERTZ_STUDY
    return preset.beta, preset.lam.entries


def main() -> int:
    tasks = [(name, seed) for name in workloads.NAMES for seed in SEEDS]
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        done = pool.map(estimates, tasks, chunksize=1)
    table = {}
    for name, seed, est, errors in done:
        if errors:
            print(f"{name} seed {seed}: {errors}", file=sys.stderr)
            return 1
        for op, (beta, lam) in est.items():
            if name == "irregular-cli" and op == "homogeneous":
                continue
            table.setdefault(name, {}).setdefault(op, []).append((beta, np.asarray(lam)))
    out = {"seeds": [SEEDS[0], SEEDS[-1]], "factor": FACTOR, "floor": FLOOR}
    for name, ops in table.items():
        true_beta, true_lam = truth(name)
        out[name] = {}
        for op, rows in ops.items():
            betas = np.array([b for b, _ in rows])
            lams = np.stack([lam for _, lam in rows])
            beta_rmse = np.sqrt(np.mean((betas - true_beta) ** 2))
            lam_rmse = np.sqrt(np.mean((lams - true_lam) ** 2, axis=0))
            out[name][op] = {
                "beta": {
                    "true": true_beta,
                    "mean": float(betas.mean()),
                    "sd": float(betas.std(ddof=1)),
                    "tol": float(max(FACTOR * beta_rmse, FLOOR)),
                },
                "lambda": {
                    "true": true_lam.tolist(),
                    "mean": lams.mean(axis=0).tolist(),
                    "sd": lams.std(axis=0, ddof=1).tolist(),
                    "tol": np.maximum(FACTOR * lam_rmse, FLOOR).tolist(),
                },
            }
    with open(workloads.TOLERANCES, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    print(f"wrote {workloads.TOLERANCES} from {len(done)} fits")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks computed apart from the program.

Every check here uses numpy and scipy alone, never iphfit: the time
transforms, the sufficient statistics, the KS statistic and the matrix
exponential are recomputed from their definitions.  Each function returns
a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.stats


def g_inv(family: str, beta: float | None, t) -> np.ndarray:
    """Operational time of calendar time t, from the family's definition."""
    t = np.asarray(t, dtype=float)
    if family == "gompertz":
        with np.errstate(over="ignore"):
            return np.expm1(beta * t) / beta
    if family == "weibull":
        return t**beta
    if family == "identity":
        return t.copy()
    raise ValueError(f"unknown family {family!r}")


def completed_paths(label, obs_times, obs_states0, family, beta, paths, n) -> list[str]:
    """Each completed path occupies the observed state at every transformed
    observation epoch, and ends absorbed."""
    bad = []
    for k, (t, x0, p) in enumerate(zip(obs_times, obs_states0, paths)):
        times = np.asarray(p.times)
        states = np.asarray(p.states)
        if int(states[-1]) != n + 1:
            bad.append(f"{label}: completed path {k} does not end absorbed")
            continue
        s = g_inv(family, beta, t)
        idx = np.searchsorted(times, s, side="right") - 1
        if np.any(states[idx] != np.asarray(x0) + 1):
            j = int(np.nonzero(states[idx] != np.asarray(x0) + 1)[0][0])
            bad.append(
                f"{label}: path {k} is in state {int(states[idx][j])} at epoch {j}, "
                f"observed {int(x0[j]) + 1}"
            )
        if len(bad) > 5:
            break
    return bad


def statistics(paths, n: int):
    """(N_xy, N_x, R_x) of complete homogeneous paths (1-based states).

    Every completed path ends absorbed (``completed_paths`` checks it), so
    there is no censored holding time after a path's last jump.
    """
    lengths = np.fromiter((len(p.times) for p in paths), dtype=np.int64, count=len(paths))
    times = np.concatenate([np.asarray(p.times) for p in paths])
    states = np.concatenate([np.asarray(p.states) for p in paths]) - 1
    last = np.cumsum(lengths) - 1
    within = np.ones(times.size, dtype=bool)
    within[last] = False  # the step from one path's last entry to the next path
    src = states[:-1][within[:-1]]
    dst = states[1:][within[:-1]]
    hold = np.diff(times)[within[:-1]]
    r = np.bincount(src, weights=hold, minlength=n)
    pairs = np.bincount(src * (n + 1) + dst, minlength=n * (n + 1)).reshape(n, n + 1)
    return pairs[:, :n], pairs[:, n], r


def lambda_from_counts(label, paths, n: int, lam_hat) -> list[str]:
    """The M-step's Lambda equals N/R recomputed from the completed paths."""
    nxy, nx, r = statistics(paths, n)
    lam = nxy / r[:, None]
    np.fill_diagonal(lam, -(lam.sum(axis=1) + nx / r))
    lam_hat = np.asarray(lam_hat, dtype=float)
    err = np.max(np.abs(lam - lam_hat))
    if not err <= 1e-12 * max(1.0, np.max(np.abs(lam))):
        return [f"{label}: M-step Lambda differs from N/R by {err:.3g}"]
    return []


def ks(label, sample_a, sample_b, d, p) -> list[str]:
    """D against scipy.stats.ks_2samp; p against the limiting Kolmogorov
    law (scipy.stats.kstwobign) at sqrt(n_a n_b / (n_a + n_b)) D."""
    ref = float(scipy.stats.ks_2samp(sample_a, sample_b).statistic)
    n_a, n_b = len(sample_a), len(sample_b)
    ref_p = float(scipy.stats.kstwobign.sf(np.sqrt(n_a * n_b / (n_a + n_b)) * ref))
    bad = []
    if abs(ref - d) > 1e-12:
        bad.append(f"{label}: KS D {d!r} but ks_2samp gives {ref!r}")
    if abs(ref_p - p) > 1e-9 * ref_p + 1e-300:
        bad.append(f"{label}: KS p {p!r} but the Kolmogorov law gives {ref_p!r}")
    return bad


def cdf(label, pi, lam, family, beta, times, got) -> list[str]:
    """The fitted CDF against 1 - pi expm(g_inv(t) Lambda) 1."""
    pi = np.asarray(pi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    want = np.array(
        [1.0 - pi @ scipy.linalg.expm(s * lam) @ np.ones(lam.shape[0])
         for s in g_inv(family, beta, times)]
    )
    err = np.max(np.abs(want - np.asarray(got, dtype=float)))
    if not err <= 1e-9:
        return [f"{label}: iph_cdf differs from the expm reference by {err:.3g}"]
    return []


def near_truth(label, beta_hat, lam_hat, tol: dict) -> list[str]:
    """Estimates within the tolerance set from the seed-to-seed spread."""
    bad = []
    if "beta" in tol and not abs(beta_hat - tol["beta"]["true"]) <= tol["beta"]["tol"]:
        bad.append(
            f"{label}: beta_hat {beta_hat:.6g} is more than {tol['beta']['tol']:.3g} "
            f"from {tol['beta']['true']:.6g}"
        )
    true = np.asarray(tol["lambda"]["true"])
    limit = np.asarray(tol["lambda"]["tol"])
    off = np.abs(np.asarray(lam_hat) - true) > limit
    if np.any(off):
        i, j = (int(v) for v in np.argwhere(off)[0])
        bad.append(
            f"{label}: lambda_{i + 1}_{j + 1} = {lam_hat[i][j]:.6g} is more than "
            f"{limit[i, j]:.3g} from {true[i, j]:.6g}"
        )
    return bad


def strictly_falling(label, counts) -> list[str]:
    counts = list(counts)
    if all(a > b for a, b in zip(counts, counts[1:])):
        return []
    return [f"{label}: absorbed counts {counts} do not fall strictly as the window shrinks"]


def below(label, value, limit) -> list[str]:
    return [] if value < limit else [f"{label}: {value!r} is not below {limit!r}"]


# -- parsing the program's files without the program ------------------------


def parse_report(text: str) -> dict:
    """beta_hat, pi_hat and lambda_hat of a fit report."""
    out = {"beta_hat": None}
    section = None
    rows: dict[str, list] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            rows[section] = []
        elif section is None:
            key, _, value = line.partition(",")
            out[key] = value
        else:
            rows[section].append(line)
    if out.get("beta_hat"):
        out["beta_hat"] = float(out["beta_hat"])
    out["pi_hat"] = np.array([float(v) for v in rows["pi_hat"][0].split(",")])
    out["lambda_hat"] = np.array(
        [[float(v) for v in r.split(",")] for r in rows["lambda_hat"]]
    )
    return out


def parse_gof(text: str) -> dict:
    head, row = text.strip().splitlines()[:2]
    values = dict(zip(head.split(","), row.split(",")))
    return {
        "n_observed": int(values["n_observed"]),
        "n_simulated": int(values["n_simulated"]),
        "d": float(values["d_statistic"]),
        "p": float(values["p_value"]),
    }


def samples_from_ecdf(text: str, n_a: int, n_b: int):
    """Recover both samples (as sorted multisets) from an ECDF table: the
    jump of each ECDF at a grid value times the sample size is the number
    of sample values equal to it."""
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in text.strip().splitlines()[1:]]
    )
    grid, fa, fb = rows.T
    ca = np.rint(np.diff(np.concatenate(([0.0], fa))) * n_a).astype(np.int64)
    cb = np.rint(np.diff(np.concatenate(([0.0], fb))) * n_b).astype(np.int64)
    return np.repeat(grid, ca), np.repeat(grid, cb)

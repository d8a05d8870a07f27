"""Sufficient statistics, complete-data MLEs, density/CDF evaluation and
the beta objective with its analytic gradient.

For fully observed homogeneous trajectories the complete-data likelihood
factorizes, giving closed-form MLEs: pi_hat from start counts, each rate
as (jump count) / (occupation time of the source state), and diagonals
fixed so full-generator rows sum to zero.

The absorption-time density of the time-scaled model at calendar time t is
``h(t) * pi . exp(g_inv(t) L) . exit``, its CDF ``1 - pi . exp(g_inv(t) L) . 1``.
Both reduce to products ``pi . exp(sL) . v`` evaluated for many s; these go
through an eigendecomposition of L when it is numerically trustworthy and
otherwise fall back to per-point expm calls.  Every construction probes
the eigen side at four points (one vectorised evaluation per coefficient
vector) against a uniformization reference, within 1e-11 relative; the
reference is numpy alone, so a kernel on the eigen route never loads
scipy.

The eigen side builds its tables of exp(s w_j) one eigenvalue column at a
time into a C-contiguous complex array, which each product with a complex
coefficient vector reads without a cast; the values are those of
``exp(multiply.outer(s, w))``.  Where g_inv(t) overflowed to +inf the
kernel itself gives density 0, survival 0 and ratio nan.

The beta objective is evaluated in one pass per beta: the family's four
terms (h, g_inv and the two beta-derivatives) and the kernel's density and
score ratio are computed once and shared by the log-likelihood and its
score.  What does not depend on beta is done once, when the objective is
built: the absorption times are checked there, and Weibull's log t taken.
A gradient ascent whose update lands on an earlier beta fails at once,
since a deterministic update then cycles for ever.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonConvergenceError,
    NumericalError,
    StarvedStateError,
    ValidationError,
)
from .generator import InitialDistribution, SubIntensityMatrix, matrix_exponential
from .paths import HOMOGENEOUS, ContinuousPath
from .scaling import IDENTITY, ScalingFamily

# ---------------------------------------------------------------------------
# sufficient statistics and MLEs


@dataclass(frozen=True)
class SufficientStatistics:
    """Complete-data counts over n transient states.

    ``start_counts`` (B): paths starting in each state; ``jump_counts``
    (N_xy): transitions between transient states, zero diagonal;
    ``absorption_counts`` (N_x): jumps into the absorbing state;
    ``occupation`` (R_x): total holding time per state, homogeneous units.
    """

    start_counts: np.ndarray
    jump_counts: np.ndarray
    absorption_counts: np.ndarray
    occupation: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.start_counts, dtype=np.int64)
        nt = np.asarray(self.jump_counts, dtype=np.int64)
        na = np.asarray(self.absorption_counts, dtype=np.int64)
        r = np.asarray(self.occupation, dtype=float)
        n = b.size
        if nt.shape != (n, n) or na.shape != (n,) or r.shape != (n,):
            raise ValidationError("statistics arrays have inconsistent shapes")
        if np.any(b < 0) or np.any(nt < 0) or np.any(na < 0):
            raise ValidationError("counts must be non-negative")
        if np.any(np.diag(nt) != 0):
            raise ValidationError("jump counts must have a zero diagonal")
        if not np.all(np.isfinite(r)) or np.any(r < 0.0):
            raise ValidationError("occupation times must be finite and >= 0")
        for name, arr in (
            ("start_counts", b),
            ("jump_counts", nt),
            ("absorption_counts", na),
            ("occupation", r),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.start_counts.size


def accumulate_statistics(paths, n: int | None = None) -> SufficientStatistics:
    """Tally sufficient statistics over homogeneous :class:`ContinuousPath`
    objects.  The final partial holding of a censored path (last jump to
    ``end_time``) counts toward occupation.

    ``n`` may be omitted when the collection is non-empty.
    """
    paths = list(paths)
    if n is None:
        if not paths:
            raise ValidationError("empty collection needs an explicit n")
        n = paths[0].n
    for p in paths:
        if not isinstance(p, ContinuousPath):
            raise ValidationError(f"unsupported path object {type(p).__name__}")
        if p.timeline != HOMOGENEOUS:
            raise ValidationError(
                "statistics require homogeneous-timeline paths, got "
                f"{p.timeline!r}"
            )
        if p.n != n:
            raise ValidationError("path over a different state count")
    return flat_statistics(
        np.concatenate([p.times for p in paths] + [np.empty(0)]),
        np.concatenate([p.states for p in paths] + [np.empty(0, dtype=np.int64)]) - 1,
        np.cumsum([0] + [p.times.size for p in paths]),
        np.array([p.end_time for p in paths]),
        n,
    )


def flat_statistics(times, states0, bounds, ends, n: int) -> SufficientStatistics:
    """The statistics of paths stored end to end, as ``FlatPaths`` stores
    them: path k is ``times[bounds[k]:bounds[k + 1]]`` in the 0-based
    ``states0[...]``, ending at ``ends[k]``.  A state equal to the one
    before it is no jump, so a panel read as if observed continuously can
    be tallied as it stands.  Occupation is summed in path order, each
    path's holdings and then its censored tail, as per-path accumulation
    sums it.
    """
    first = np.zeros(times.size, dtype=bool)
    first[bounds[:-1]] = True
    keep = first.copy()
    keep[1:] |= states0[1:] != states0[:-1]
    t, x, first = times[keep], states0[keep], first[keep]
    step = ~first[1:]  # kept entry i + 1 continues the path of entry i
    src, dst, hold = x[:-1][step], x[1:][step], np.diff(t)[step]
    last = np.cumsum(keep)[bounds[1:] - 1] - 1  # the last kept entry of each path
    tail = x[last] < n
    path = np.cumsum(first) - 1
    order = np.argsort(np.concatenate((path[1:][step], np.flatnonzero(tail))), kind="stable")
    b = np.zeros(n, dtype=np.int64)
    nt = np.zeros((n, n), dtype=np.int64)
    na = np.zeros(n, dtype=np.int64)
    r = np.zeros(n)
    np.add.at(b, x[first], 1)
    into = dst < n
    np.add.at(nt, (src[into], dst[into]), 1)
    np.add.at(na, src[~into], 1)
    np.add.at(
        r,
        np.concatenate((src, x[last][tail]))[order],
        np.concatenate((hold, ends[tail] - t[last][tail]))[order],
    )
    return SufficientStatistics(b, nt, na, r)


def mle_generator(
    stats: SufficientStatistics, K: int
) -> tuple[InitialDistribution, SubIntensityMatrix]:
    """Complete-data maximum likelihood estimates.

    ``pi_hat_x = B_x / K``; off-diagonal rates ``N_xy / R_x``; exit rates
    ``N_x / R_x``; diagonals set so each full-generator row sums to zero.
    Every ``R_x`` must be positive.
    """
    K = int(K)
    if K < 1:
        raise ValidationError("K must be a positive path count")
    if int(stats.start_counts.sum()) != K:
        raise ValidationError(
            f"start counts sum to {int(stats.start_counts.sum())}, expected K={K}"
        )
    zero = np.nonzero(stats.occupation <= 0.0)[0]
    if zero.size:
        raise StarvedStateError(int(zero[0]) + 1)
    n = stats.n
    rates = stats.jump_counts / stats.occupation[:, None]
    exit_hat = stats.absorption_counts / stats.occupation
    lam = rates.copy()
    lam[np.eye(n, dtype=bool)] = -(rates.sum(axis=1) + exit_hat)
    return (
        InitialDistribution(stats.start_counts / K),
        SubIntensityMatrix(lam),
    )


# ---------------------------------------------------------------------------
# density / CDF kernel


def _split_overflow(s: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``s`` with its non-finite entries (an overflowed g_inv) read as 0,
    and their mask, None when every entry is finite."""
    if np.isfinite(s).all():
        return s, None
    over = ~np.isfinite(s)
    return np.where(over, 0.0, s), over


# the eigen probe's uniformization means m = rate * s, and one row per mean
# of Poisson weights e^-m m^k / k! for k < _PROBE_TERMS, as running products
_PROBE_MEANS = np.array([0.0, 0.1, 1.0, 5.0])
_PROBE_TERMS = 64
_PROBE_WEIGHTS = np.exp(-_PROBE_MEANS)[:, None] * np.cumprod(
    np.column_stack(
        (np.ones(_PROBE_MEANS.size), _PROBE_MEANS[:, None] / np.arange(1, _PROBE_TERMS))
    ),
    axis=1,
)


class _AbsorptionKernel:
    """Vectorised evaluation of pi.exp(sL).exit, pi.exp(sL).1 and the
    ratio pi.L.exp(sL).exit / pi.exp(sL).exit over arrays of homogeneous
    times s >= 0.

    A non-finite s is a g_inv(t) that overflowed float64, where the
    density has long underflown: there the density and the survival are
    0 and the ratio nan.  The other times are evaluated as if those were
    0, so their values do not depend on the overflow."""

    def __init__(self, pi: InitialDistribution, lam: SubIntensityMatrix):
        self._exit = lam.exit_rates()  # validates lam
        if pi.n != lam.n:
            raise ValidationError(
                f"initial distribution has {pi.n} states, generator has {lam.n}"
            )
        self._pi = pi.probabilities
        self._arr = lam.entries
        self._ones = np.ones(lam.n)
        self._eig_ok = False
        try:
            w, v = np.linalg.eig(self._arr)
            vinv = np.linalg.inv(v)
            self._w = w
            self._w_shifted = w - w.real.max()
            left = self._pi @ v
            self._c_exit = left * (vinv @ self._exit.astype(complex))
            self._c_rate = left * w * (vinv @ self._exit.astype(complex))
            self._c_one = left * (vinv @ self._ones.astype(complex))
            self._eig_ok = self._probe()
        except np.linalg.LinAlgError:
            self._eig_ok = False

    def _probe(self) -> bool:
        """Whether the eigen side matches the matrix exponential, within
        1e-11 relative, at four points spanning the slowest decay.

        The reference is uniformization (numpy alone, so no BLAS helper
        threads wake): with ``rate = max(-L_ii)`` and ``P = I + L / rate``
        (non-negative, rows summing to at most one),
        ``exp(sL) = sum_k Poisson(k; rate s) P^k``.  The probe points are
        ``s = m / rate`` for the fixed means in ``_PROBE_MEANS``, so the
        Poisson weights are constants; the rows ``pi P^k`` (k < 64) double
        with each squaring of P, and the Poisson(5) tail beyond them is
        below 1e-40.  pi L exp(sL) exit is taken as pi exp(sL) (L exit).
        """
        rate = max(float(-self._arr.diagonal().min()), 1e-12)
        got = np.column_stack(
            [self._eig_eval(c, _PROBE_MEANS / rate)
             for c in (self._c_exit, self._c_rate, self._c_one)]
        )
        rows, power = self._pi[None, :], np.eye(self._arr.shape[0]) + self._arr / rate
        while rows.shape[0] < _PROBE_TERMS:
            rows = np.vstack((rows, rows @ power))
            power = power @ power
        right = np.column_stack((self._exit, self._arr @ self._exit, self._ones))
        ref = _PROBE_WEIGHTS @ (rows @ right)
        return not np.any(np.abs(got - ref) > 1e-11 * np.maximum(np.abs(ref), 1e-3))

    @staticmethod
    def _table(s: np.ndarray, w: np.ndarray) -> np.ndarray:
        """exp(s w_j) as a C-contiguous complex array of shape
        ``s.shape + w.shape``, filled one eigenvalue at a time (an outer
        product over the 2- or 3-wide last axis runs one inner loop per
        time).  Real eigenvalues are exponentiated as reals and then cast,
        so each ``@`` with the complex coefficients reads the table as it
        stands.  The values and the layout are those of
        ``exp(multiply.outer(s, w))``: the products' last bits may depend
        on the layout, and a fit's bytes on those bits."""
        table = np.empty(s.shape + w.shape, dtype=w.dtype)
        for j, wj in enumerate(w.tolist()):  # Python scalars multiply faster
            np.multiply(s, wj, out=table[..., j])
        np.exp(table, out=table)
        return table if w.dtype.kind == "c" else table.astype(complex)

    def _eig_eval(self, coeff: np.ndarray, s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            return (self._table(s, self._w) @ coeff).real

    def _expm_eval(self, right: np.ndarray, s: np.ndarray) -> np.ndarray:
        flat = np.atleast_1d(s)
        out = np.array([self._pi @ matrix_exponential(self._arr, si) @ right for si in flat])
        return out.reshape(np.shape(s))

    def _projection(self, coeff: np.ndarray, right: np.ndarray, s) -> np.ndarray:
        """pi . exp(sL) . right at checked times, 0 where s overflowed."""
        s_arr, over = _split_overflow(np.asarray(s, dtype=float))
        out = self._eig_eval(coeff, s_arr) if self._eig_ok else self._expm_eval(right, s_arr)
        return out if over is None else np.where(over, 0.0, out)

    def density_factor(self, s):
        """pi . exp(sL) . exit  (the phase-type density at s)."""
        return self._projection(self._c_exit, self._exit, s)

    def survival(self, s):
        """pi . exp(sL) . 1."""
        return self._projection(self._c_one, self._ones, s)

    def density_and_ratio(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``density_factor(s)`` and the ratio pi.L.exp(sL).exit /
        pi.exp(sL).exit at a vector s of times >= 0, the ratio stable
        under density underflow.

        On the eigendecomposition route the ratio cancels the common
        factor exp(s * w_max) before exponentiating, so it stays finite for
        s far beyond the point where the density itself underflows (it
        tends to the dominant eigenvalue); it is nan only where its
        denominator is 0.  The expm route computes one matrix exponential
        per point for both and divides directly, so its ratio may be nan
        once the density underflows.
        """
        s, over = _split_overflow(s)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore", under="ignore"):
            if self._eig_ok:
                shifted = self._table(s, self._w_shifted)
                den = (shifted @ self._c_exit).real
                ratio = (shifted @ self._c_rate).real / den
                if not den.all():
                    ratio[den == 0.0] = np.nan
                a = (self._table(s, self._w) @ self._c_exit).real
            else:
                exps = [matrix_exponential(self._arr, si) for si in s]
                a = np.array([self._pi @ e @ self._exit for e in exps])
                ratio = np.array([self._pi @ self._arr @ e @ self._exit for e in exps]) / a
        if over is not None:
            a[over], ratio[over] = 0.0, np.nan
        return a, ratio


def _wrap_pi(pi) -> InitialDistribution:
    return pi if isinstance(pi, InitialDistribution) else InitialDistribution(pi)


def _wrap_lam(lam) -> SubIntensityMatrix:
    return lam if isinstance(lam, SubIntensityMatrix) else SubIntensityMatrix(lam)


def iph_density(pi, lam, family: ScalingFamily, t):
    """Absorption-time density of the time-scaled model at calendar time t.

    ``h(t) * pi . exp(g_inv(t) L) . exit``; t may be a scalar or array.
    Where the transformed time overflows float64 the density has long
    underflown and 0 is returned.
    """
    kern = _AbsorptionKernel(_wrap_pi(pi), _wrap_lam(lam))
    factor = kern.density_factor(family.g_inv(t))
    # a factor of 0 gives 0 even where h(t) overflowed with g_inv(t)
    vals = np.multiply(family.h(t), factor, out=np.zeros(np.shape(factor)), where=factor != 0.0)
    out = np.maximum(vals, 0.0)
    return float(out) if np.ndim(t) == 0 else out


def iph_cdf(pi, lam, family: ScalingFamily, t):
    """Absorption-time distribution function, ``1 - pi . exp(g_inv(t) L) . 1``."""
    kern = _AbsorptionKernel(_wrap_pi(pi), _wrap_lam(lam))
    out = np.clip(1.0 - kern.survival(family.g_inv(t)), 0.0, 1.0)
    return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# beta objective


@dataclass(frozen=True)
class BetaObjective:
    """Log-likelihood data for the scaling parameter.

    Holds the family kind, fixed (pi, L) estimates and the calendar-time
    absorption sample; beta itself is the argument of the evaluation
    functions.
    """

    family: str
    pi: InitialDistribution
    lam: SubIntensityMatrix
    absorption_times: np.ndarray
    _kernel: _AbsorptionKernel = field(init=False, repr=False, compare=False)
    _log_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pi = _wrap_pi(self.pi)
        lam = _wrap_lam(self.lam)
        ScalingFamily(self.family, 1.0)  # validates the kind
        times = np.asarray(self.absorption_times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("absorption times must be a non-empty vector")
        if not np.all(np.isfinite(times)) or np.any(times <= 0.0):
            raise ValidationError("absorption times must be finite and > 0")
        times.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "absorption_times", times)
        object.__setattr__(self, "_kernel", _AbsorptionKernel(pi, lam))
        object.__setattr__(self, "_log_t", np.log(times))

    def family_at(self, beta: float) -> ScalingFamily:
        return ScalingFamily(self.family, beta)


def _underflow_warning(kind: str, index: int, t: float, stacklevel: int) -> None:
    warnings.warn(
        f"{kind} underflow at observation {index} (t={t:g})",
        RuntimeWarning,
        stacklevel=stacklevel,
    )


def _evaluate(
    obj: BetaObjective, beta: float, loglik: bool = True, score: bool = True,
    stacklevel: int = 4,
) -> tuple[float | None, float | None]:
    """``(loglik, score)`` at beta in one pass over the absorption sample.

    The family's terms and the kernel's density and ratio are computed once
    and shared; the times, and Weibull's log t, were computed and checked
    when ``obj`` was built.  Where g_inv(t) overflows float64 the kernel
    gives density 0 and ratio nan, so the log-likelihood is -inf and the
    score nan, each after its warning.  A part not asked for is None and
    raises no warning.  ``stacklevel`` points the underflow warnings at the
    caller of the public function.
    """
    t = obj.absorption_times
    g_inv, h, dh, int_dh = obj.family_at(beta)._terms(t, log_t=obj._log_t)
    a, ratio = obj._kernel.density_and_ratio(g_inv)
    ell = grad = None
    if loglik:
        if (a > 0.0).all() and np.isfinite(a).all():
            ell = float(np.log(h).sum() + np.log(a).sum())
        else:
            bad = int(np.flatnonzero(~np.isfinite(a) | (a <= 0.0))[0])
            _underflow_warning("density", bad, float(t[bad]), stacklevel)
            ell = -np.inf
    if score:
        if np.isfinite(ratio).all():
            grad = float((dh / h).sum() + (int_dh * ratio).sum())
        else:
            bad = int(np.flatnonzero(~np.isfinite(ratio))[0])
            _underflow_warning("score", bad, float(t[bad]), stacklevel)
            grad = float("nan")
    return ell, grad


def beta_loglik(obj: BetaObjective, beta: float) -> float:
    """Log-likelihood of beta: sum of log h(t_k) + log(pi.exp(g_inv(t_k)L).exit).

    Returns -inf when the density underflows at some observation (a
    warning names the first offending index).
    """
    return _evaluate(obj, beta, score=False)[0]


def beta_gradient(obj: BetaObjective, beta: float) -> float:
    """Analytic score of :func:`beta_loglik` at beta.

    Per observation: dh/dbeta / h plus the accumulated derivative of h
    times the ratio (pi.L.exp(sL).exit)/(pi.exp(sL).exit).  The ratio is
    evaluated in shifted form, so the score stays finite well past the
    point where the log-likelihood itself underflows to -inf (there it is
    dominated by the generator's slowest decay rate, which is what drives
    the clamped ascent update back toward sane beta).  Returns nan, after
    a warning, only when the ratio itself cannot be evaluated.
    """
    return _evaluate(obj, beta, loglik=False)[1]


def gd_solve(
    obj: BetaObjective,
    beta0: float,
    eta: float,
    e_ell: float,
    beta_min: float = 1e-5,
    max_steps: int = 100_000,
    trace: list | None = None,
) -> tuple[float, int]:
    """Fixed-step gradient ascent on the beta log-likelihood.

    Updates ``beta <- max(beta_min, beta + eta * grad)`` until the change
    in log-likelihood between consecutive iterates drops below ``e_ell``.
    Returns ``(beta_hat, updates_performed)``.  When ``trace`` is given,
    appends one ``(step, beta, loglik, grad)`` tuple per update.

    Raises
    ------
    NonConvergenceError
        If ``max_steps`` updates pass without meeting the criterion, or at
        once when an update that does not meet it lands on an earlier
        beta: the update is deterministic, so the ascent then cycles for
        ever (the trace rides on the exception).
    NumericalError
        If a gradient evaluates to a non-finite value.
    """
    beta0, eta, e_ell, beta_min = map(float, (beta0, eta, e_ell, beta_min))
    if not (0.0 < eta < np.inf and 0.0 < e_ell < np.inf):
        raise ValidationError("eta and e_ell must be positive and finite")
    if not 0.0 < beta_min <= beta0 < np.inf:
        raise ValidationError("need finite beta0 >= beta_min > 0")
    if int(max_steps) < 1:
        raise ValidationError("max_steps must be at least 1")
    ell_prev, grad = _evaluate(obj, beta0, stacklevel=3)
    beta = beta0
    seen = {beta0: 0}  # every iterate, in order
    local_trace = trace if trace is not None else []
    for step in range(1, int(max_steps) + 1):
        if not np.isfinite(grad):
            raise NumericalError(f"non-finite gradient at beta={beta:g}")
        beta = max(beta_min, beta + eta * grad)
        ell, grad = _evaluate(obj, beta, stacklevel=3)
        local_trace.append((step, beta, ell, grad))
        if abs(ell - ell_prev) < e_ell:
            return beta, step
        ell_prev = ell
        if beta in seen:
            cycle = list(seen)[seen[beta]:]
            shown = ", ".join(f"{b:g}" for b in cycle[:4]) + (", ..." if len(cycle) > 4 else "")
            err = NonConvergenceError(
                f"gradient ascent cycles through {len(cycle)} betas ({shown}) after "
                f"{step} updates on {obj.absorption_times.size} absorption times"
            )
            break
        seen[beta] = len(seen)
    else:
        err = NonConvergenceError(
            f"gradient ascent did not converge within {max_steps} updates"
        )
    err.trace = tuple(local_trace)
    raise err

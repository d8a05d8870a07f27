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
the eigen side at four points (the three coefficient vectors of one set of
columns) against a uniformization reference, within 1e-11 relative; the
reference is numpy alone, a few small matrix products into one
preallocated table, so a kernel on the eigen route never loads scipy.

The eigen side is real arithmetic, one eigenvalue column at a time: each
conjugate pair is one column ``2 Re(c e^(sw))`` in cos and sin, the
dominant eigenvalue, which is real, is a constant after the shift by it,
and every other column costs one exp.  The density factor, the ratio
numerator and the survival are elementwise float64 sums over the columns
in a fixed order, so their bits do not depend on a BLAS kernel.  Where
g_inv(t) overflowed to +inf the kernel itself gives density 0, survival 0
and ratio nan.

The beta objective is evaluated in one pass per beta: the family's terms
(g_inv, the accumulated beta-derivative of h, and the sums of log h and
of its beta-derivative in closed form, with no family object built) and
the kernel's density and score ratio are computed once and shared by the
log-likelihood and its score.  What does not depend on beta is done once,
when the objective is built: the absorption times are checked there, and
log t, the sum of t and the sum of log t taken.  Each part is checked
once, on its sum.  The gradient ascent backtracks a step that would lower
the log-likelihood, and an update that lands on an earlier beta fails at
once.
"""

from __future__ import annotations

import math
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
from .scaling import ScalingFamily, _checked_beta, _objective_terms

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
    lam = _mle_rates(stats.jump_counts, stats.absorption_counts, stats.occupation)
    return InitialDistribution(stats.start_counts / K), SubIntensityMatrix(lam)


def _mle_rates(jumps: np.ndarray, absorptions: np.ndarray, occupation: np.ndarray) -> np.ndarray:
    """The entries of :func:`mle_generator`'s Lambda from counts that hold
    its checks; a state with no occupation raises ``StarvedStateError``."""
    zero = np.flatnonzero(occupation <= 0.0)
    if zero.size:
        raise StarvedStateError(int(zero[0]) + 1)
    lam = jumps / occupation[:, None]
    np.fill_diagonal(lam, -(lam.sum(axis=1) + absorptions / occupation))
    return lam


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
    0, so their values do not depend on the overflow.

    On the eigen route ``pi exp(sL) v = sum_j c_j exp(s w_j)`` with
    ``c = (pi V) * (V^-1 v)``, and the sum is real.  It is evaluated as
    ``exp(s w_max) * sum_j Re(c_j exp(s (w_j - w_max)))`` over columns: the
    eigenvalue w_max with the largest real part is real for a
    sub-intensity matrix, so its column is the constant ``c``; a real
    eigenvalue is one ``exp``; a conjugate pair is one column with the
    coefficient ``c_j + conj(c_k)`` of both, ``e^(sa) (p cos sb - q sin
    sb)`` for ``w_j - w_max = a + ib`` and that coefficient ``p + iq``.
    The columns are added in a fixed order, in float64 and elementwise.
    """

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
            left = self._pi @ v
            r_exit = vinv @ self._exit
            # rows: density factor, ratio numerator, survival
            self._columns(w, left * np.stack((r_exit, w * r_exit, vinv @ self._ones)))
            self._eig_ok = self._probe()
        except np.linalg.LinAlgError:
            self._eig_ok = False

    def _columns(self, w: np.ndarray, coeff: np.ndarray) -> None:
        """The columns of the eigenvalues ``w`` with coefficient rows
        ``coeff``: ``_shift`` is w_max, ``_const`` the summed real parts of
        the columns whose shifted exponent is 0, and ``_cols`` one ``(a, b,
        p, q)`` per other column, ``p`` and ``q`` the real and imaginary
        parts of its coefficient in each row (b = 0 for a real
        eigenvalue).  ``_phase_cap`` bounds s where s * b could overflow."""
        self._shift = float(w.real.max())
        const = np.zeros(3)
        self._cols = []
        for j in range(w.size):
            if w[j].imag < 0.0:
                continue  # LAPACK puts it right after its exact conjugate
            c = coeff[:, j]
            if w[j].imag > 0.0:
                c = c + np.conj(coeff[:, j + 1])
            a, b = float(w[j].real) - self._shift, float(w[j].imag)
            if b == 0.0 and a == 0.0:
                const += c.real
            else:
                self._cols.append((a, b, tuple(c.real.tolist()), tuple(c.imag.tolist())))
        self._const = tuple(const.tolist())
        pairs = [b for _a, b, _p, _q in self._cols if b]
        self._phase_cap = 1e300 / max(pairs) if pairs else np.inf

    def _shifted(self, s: np.ndarray, rows: tuple[int, ...]) -> list[np.ndarray]:
        """``sum_j Re(c_j exp(s (w_j - w_max)))`` for each coefficient row
        in ``rows`` (0 density factor, 1 ratio numerator, 2 survival), at
        finite times s >= 0: the columns in order, then the constant."""
        phase = s
        if self._phase_cap < np.inf and not s.sum() < self._phase_cap:
            phase = np.minimum(s, self._phase_cap)  # there e^(sa) is 0, so is the column
        sums = None
        for a, b, p, q in self._cols:
            e = np.exp(s * a)
            if b:
                sb = phase * b
                cos, sin = e * np.cos(sb), e * np.sin(sb)
                terms = [p[r] * cos - q[r] * sin for r in rows]
            else:
                terms = [p[r] * e for r in rows]
            sums = terms if sums is None else [acc + term for acc, term in zip(sums, terms)]
        if sums is None:
            return [np.full(s.shape, self._const[r]) for r in rows]
        return [acc + self._const[r] for acc, r in zip(sums, rows)]

    def _probe(self) -> bool:
        """Whether the eigen route matches the matrix exponential, within
        1e-11 relative, at four points spanning the slowest decay.

        The reference is uniformization (numpy alone, so no BLAS helper
        threads wake): with ``rate = max(-L_ii)`` and ``P = I + L / rate``
        (non-negative, rows summing to at most one),
        ``exp(sL) = sum_k Poisson(k; rate s) P^k``.  The probe points are
        ``s = m / rate`` for the fixed means in ``_PROBE_MEANS``, so the
        Poisson weights are constants.  The rows ``pi P^k`` (k < 64) fill
        one preallocated table, rows ``k..2k - 1`` as rows ``0..k - 1``
        times ``P^k`` with P squared after each of the six products; the
        Poisson(5) tail beyond them is below 1e-40.  pi L exp(sL) exit is
        taken as pi exp(sL) (L exit).  The eigen side is the three rows of
        one ``_shifted`` call.
        """
        n = self._arr.shape[0]
        rate = max(float(-self._arr.diagonal().min()), 1e-12)
        s = _PROBE_MEANS / rate
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got = np.array(self._shifted(s, (0, 1, 2))) * np.exp(s * self._shift)
        rows = np.empty((_PROBE_TERMS, n))
        rows[0], power, k = self._pi, np.eye(n) + self._arr / rate, 1
        while k < _PROBE_TERMS:
            np.matmul(rows[:k], power, out=rows[k:2 * k])
            power, k = power @ power, 2 * k
        right = np.column_stack((self._exit, self._arr @ self._exit, self._ones))
        ref = (_PROBE_WEIGHTS @ (rows @ right)).T  # a row per coefficient row, as got
        return not np.any(np.abs(got - ref) > 1e-11 * np.maximum(np.abs(ref), 1e-3))

    def _expm_eval(self, right: np.ndarray, s: np.ndarray) -> np.ndarray:
        flat = np.atleast_1d(s)
        out = np.array([self._pi @ matrix_exponential(self._arr, si) @ right for si in flat])
        return out.reshape(np.shape(s))

    def _projection(self, row: int, right: np.ndarray, s) -> np.ndarray:
        """pi . exp(sL) . right at checked times, 0 where s overflowed;
        ``row`` is its coefficient row on the eigen route."""
        s_arr, over = _split_overflow(np.asarray(s, dtype=float))
        if self._eig_ok:
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                out = self._shifted(s_arr, (row,))[0] * np.exp(s_arr * self._shift)
        else:
            out = self._expm_eval(right, s_arr)
        return out if over is None else np.where(over, 0.0, out)

    def density_factor(self, s):
        """pi . exp(sL) . exit  (the phase-type density at s)."""
        return self._projection(0, self._exit, s)

    def survival(self, s):
        """pi . exp(sL) . 1."""
        return self._projection(2, self._ones, s)

    def density_and_ratio(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``density_factor(s)`` and the ratio pi.L.exp(sL).exit /
        pi.exp(sL).exit at a vector s of times >= 0, the ratio stable
        under density underflow.

        On the eigendecomposition route both come from the same shifted
        columns: the ratio is the quotient of two shifted sums, so it
        stays finite for s far beyond the point where the density itself
        underflows (it tends to the dominant eigenvalue), and is nan only
        where its denominator is 0; the density is that denominator times
        exp(s * w_max).  The expm route computes one matrix exponential per
        point for both and divides directly, so its ratio may be nan once
        the density underflows.  It sets no floating-point error state:
        ``_evaluate``, its caller, ignores every one around it.
        """
        s, over = _split_overflow(s)
        if self._eig_ok:
            den, num = self._shifted(s, (0, 1))
            ratio = num / den
            if not den.all():
                ratio[den == 0.0] = np.nan
            a = den * np.exp(s * self._shift)
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
    _fixed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pi = _wrap_pi(self.pi)
        lam = _wrap_lam(self.lam)
        _checked_beta(self.family, 1.0)  # validates the kind
        times = np.asarray(self.absorption_times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("absorption times must be a non-empty vector")
        if not np.all(np.isfinite(times)) or np.any(times <= 0.0):
            raise ValidationError("absorption times must be finite and > 0")
        times.setflags(write=False)
        log_t = np.log(times)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "absorption_times", times)
        object.__setattr__(self, "_kernel", _AbsorptionKernel(pi, lam))
        # the arguments of _objective_terms after the kind and beta
        object.__setattr__(self, "_fixed", (times, log_t, float(times.sum()), float(log_t.sum())))


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
    and shared; what does not depend on beta was computed when ``obj`` was
    built.  Each part is checked once, as a sum: only a non-finite sum
    looks for its first offending observation.  Where g_inv(t) overflows
    float64 the kernel gives density 0 and ratio nan, so the
    log-likelihood is -inf and the score nan, each after its warning; a
    non-finite sum with no such observation is returned as it is.  A part
    not asked for is None and raises no warning.  ``stacklevel`` points
    the underflow warnings at the caller of the public function.
    """
    ell = grad = None
    with np.errstate(all="ignore"):
        g_inv, int_dh, sum_log_h, sum_dlog_h = _objective_terms(
            obj.family, _checked_beta(obj.family, beta), *obj._fixed
        )
        a, ratio = obj._kernel.density_and_ratio(g_inv)
        if loglik:
            ell = float(sum_log_h + np.log(a).sum())
        if score:
            grad = float(sum_dlog_h + (int_dh * ratio).sum())
    t = obj.absorption_times
    if loglik and not math.isfinite(ell):
        bad = np.flatnonzero(~np.isfinite(a) | (a <= 0.0))
        if bad.size:
            _underflow_warning("density", int(bad[0]), float(t[bad[0]]), stacklevel)
            ell = -np.inf
    if score and not math.isfinite(grad):
        bad = np.flatnonzero(~np.isfinite(ratio))
        if bad.size:
            _underflow_warning("score", int(bad[0]), float(t[bad[0]]), stacklevel)
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
    """Gradient ascent on the beta log-likelihood, fixed-step while the
    steps climb.

    Updates ``beta <- max(beta_min, beta + eta * grad)`` until the change
    in log-likelihood between consecutive iterates drops below ``e_ell``.
    The first update is taken as it stands; a later one that would lower
    the log-likelihood below the previous update's is not taken: eta is
    halved for the rest of the ascent and the update retried from the
    same point (Armijo-style backtracking), which ends at the latest when
    the step no longer moves beta.  Returns ``(beta_hat,
    updates_performed)``.  When ``trace`` is given, appends one ``(step,
    beta, loglik, grad)`` tuple per update taken.

    Raises
    ------
    NonConvergenceError
        If ``max_steps`` updates pass without meeting the criterion, or at
        once when an update that does not meet it lands on an earlier
        beta (the trace rides on the exception).
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
        while True:
            trial = max(beta_min, beta + eta * grad)
            ell, trial_grad = _evaluate(obj, trial, stacklevel=3)
            if step == 1 or not ell < ell_prev:
                break
            eta *= 0.5
        beta, grad = trial, trial_grad
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

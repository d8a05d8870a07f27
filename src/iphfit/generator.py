"""Sub-intensity matrices, initial distributions and the matrix exponential.

A sub-intensity matrix is the transient block of a Markov jump process
generator with one extra absorbing state: off-diagonal entries are
non-negative rates, diagonal entries are non-positive, and every row sums
to at most zero.  The deficit of each row is the exit rate into the
absorbing state.

States are 1-based in every message and file written by this package; the
absorbing state is n+1.  Arrays are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, ValidationError

# row sums of a valid sub-intensity matrix may exceed zero only by noise
_ROWSUM_SLACK = 1e-9


def _as_square_array(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValidationError(
            f"sub-intensity matrix must be square and non-empty, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("sub-intensity matrix contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SubIntensityMatrix:
    """Transient-block generator of a phase-type model.

    Parameters
    ----------
    entries : array_like
        Square matrix of rates over the n transient states.  Construction
        only checks shape and finiteness; call :func:`validate_generator`
        for the structural checks.  The entries are read-only, so
        ``require_valid`` and ``exit_rates`` run those checks once per
        matrix.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_array(self.entries)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def exit_rates(self) -> np.ndarray:
        """Rates into the absorbing state: negated row sums, clipped at zero."""
        self.require_valid()
        return np.maximum(-self.entries.sum(axis=1), 0.0)

    def require_valid(self) -> None:
        report = self._report
        if not report.ok:
            raise ValidationError(
                "invalid sub-intensity matrix: " + "; ".join(report.violations)
            )

    @cached_property
    def _report(self) -> ValidationReport:
        return validate_generator(self)

    def __eq__(self, other):
        if not isinstance(other, SubIntensityMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and np.array_equal(
            self.entries, other.entries
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a sub-intensity matrix."""

    ok: bool
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def validate_generator(m: SubIntensityMatrix | np.ndarray) -> ValidationReport:
    """Check the sub-intensity structure of ``m``.

    Violations (each reported with 1-based indices): negative off-diagonal
    entries, positive diagonal entries, row sums above zero.  A row that is
    entirely zero passes but draws a warning: such a state can never be
    left, yet is not the designated absorbing state.

    Examples
    --------
    >>> validate_generator(np.array([[-1.0, 0.5], [0.2, -0.2]])).ok
    True
    >>> validate_generator(np.array([[-1.0, -0.5], [0.2, -0.2]])).violations
    ('negative off-diagonal rate at (1,2)',)
    """
    arr = m.entries if isinstance(m, SubIntensityMatrix) else _as_square_array(m)
    n = arr.shape[0]
    violations: list[str] = []
    warnings: list[str] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                if arr[i, j] > 0.0:
                    violations.append(f"positive diagonal entry at ({i + 1},{i + 1})")
            elif arr[i, j] < 0.0:
                violations.append(f"negative off-diagonal rate at ({i + 1},{j + 1})")
    row_sums = arr.sum(axis=1)
    scale = np.maximum(1.0, np.abs(arr).max(axis=1))
    for i in range(n):
        if row_sums[i] > _ROWSUM_SLACK * scale[i]:
            violations.append(f"row {i + 1} sums to {row_sums[i]:g} > 0")
        elif not np.any(arr[i] != 0.0):
            warnings.append(f"state {i + 1} is absorbing-in-disguise")
    return ValidationReport(
        ok=not violations, violations=tuple(violations), warnings=tuple(warnings)
    )


@dataclass(frozen=True)
class InitialDistribution:
    """Probability vector over the n transient states.

    Entries must be non-negative and sum to one within 1e-12 (no initial
    mass on the absorbing state).
    """

    probabilities: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probabilities, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("initial distribution must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("initial distribution contains non-finite entries")
        if np.any(arr < 0.0):
            raise ValidationError("initial distribution has negative entries")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValidationError(
                f"initial distribution sums to {arr.sum()!r}, expected 1 within 1e-12"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probabilities", arr)

    @property
    def n(self) -> int:
        return self.probabilities.size

    def __eq__(self, other):
        if not isinstance(other, InitialDistribution):
            return NotImplemented
        return np.array_equal(self.probabilities, other.probabilities)


def exit_rates(m: SubIntensityMatrix) -> np.ndarray:
    """Rates into the absorbing state: minus the row sums of ``m``.

    Examples
    --------
    >>> exit_rates(SubIntensityMatrix([[-3.0, 0.1], [0.01, -0.1]]))
    array([2.9 , 0.09])
    """
    if not isinstance(m, SubIntensityMatrix):
        m = SubIntensityMatrix(m)
    return m.exit_rates()


def matrix_exponential(m: SubIntensityMatrix | np.ndarray, t: float) -> np.ndarray:
    """Evaluate ``exp(t * m)`` for a square matrix and ``t >= 0``.

    Parameters
    ----------
    m : SubIntensityMatrix or array_like
        Square matrix.
    t : float
        Non-negative scale.

    Returns
    -------
    numpy.ndarray
        The matrix exponential; for a valid sub-intensity matrix this is a
        sub-stochastic matrix (non-negative, rows summing to at most one).

    Notes
    -----
    This is ``scipy.linalg.expm``, imported on the first call: a study or
    fit whose density kernels take the eigendecomposition route never
    loads scipy.
    """
    import scipy.linalg

    arr = m.entries if isinstance(m, SubIntensityMatrix) else _as_square_array(m)
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValidationError(f"matrix exponential needs a finite t >= 0, got {t!r}")
    out = scipy.linalg.expm(t * arr)
    if not np.all(np.isfinite(out)):
        raise NumericalError("matrix exponential produced non-finite entries")
    return out

"""Exception taxonomy.

Three coarse families, matching the CLI exit statuses: bad inputs
(config/panel/arguments, exit 2), estimation failures (exit 3) and
numerical failures (exit 4).
"""

from __future__ import annotations


class IphfitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(IphfitError):
    """Invalid inputs: parameters, panel data, configuration, CLI arguments."""


class ConfigError(ValidationError):
    """Malformed or inconsistent run configuration."""


class PanelFormatError(ValidationError):
    """Malformed panel file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EstimationError(IphfitError):
    """Estimation could not proceed or did not converge."""


class StarvedStateError(EstimationError):
    """A state accumulated zero occupation time, so its rates are undefined."""

    def __init__(self, state: int):
        super().__init__(
            f"state {state} has zero occupation time; its exit rates are "
            "undefined (consider removing unreachable states from the model)"
        )
        self.state = state


class BridgeBudgetError(EstimationError):
    """Rejection sampling exhausted its attempt budget for one bridge.

    Only ``simulate.bridge_sample``, the rejection reference, raises it:
    fits draw their bridges exactly and never retry.
    """

    def __init__(self, start: int, end: int, duration: float, attempts: int):
        super().__init__(
            f"bridge from state {start} to state {end} over duration "
            f"{duration:g} not accepted after {attempts} attempts"
        )
        self.start = start
        self.end = end
        self.duration = duration
        self.attempts = attempts


class StructuralError(EstimationError):
    """Model structure makes a required event impossible (e.g. absorption
    unreachable from an observed state)."""


class NonConvergenceError(EstimationError):
    """An iterative solver hit its iteration cap before converging."""


class NumericalError(IphfitError):
    """Numerical breakdown: overflow, non-finite intermediate, failed decomposition."""

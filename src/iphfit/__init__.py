"""Time-scaled inhomogeneous phase-type model fitting.

The package fits absorbing Markov models whose generator is scaled by a
parametric time function, to trajectories observed only at discrete
epochs.  Latent continuous paths are reconstructed by Markov bridges,
drawn exactly by uniformization, inside a stochastic EM loop; the scaling
parameter is updated by gradient ascent on the absorption-time likelihood.
"""

from .errors import (
    BridgeBudgetError,
    ConfigError,
    EstimationError,
    IphfitError,
    NonConvergenceError,
    NumericalError,
    PanelFormatError,
    StarvedStateError,
    StructuralError,
    ValidationError,
)
from .generator import (
    InitialDistribution,
    SubIntensityMatrix,
    ValidationReport,
    matrix_exponential,
    validate_generator,
)
from .scaling import GOMPERTZ, IDENTITY, WEIBULL, ScalingFamily
from .paths import (
    HOMOGENEOUS,
    INHOMOGENEOUS,
    ContinuousPath,
    FlatPaths,
    PanelObservationSet,
    RandomStream,
)
from .simulate import check_absorbable
from .likelihood import (
    BetaObjective,
    SufficientStatistics,
    beta_gradient,
    beta_loglik,
    gd_solve,
    iph_cdf,
    iph_density,
    mle_generator,
)
from .estimator import (
    FitConfig,
    FitResult,
    IterationRecord,
    empirical_pi,
    fit,
    initialize,
    sem_iteration,
)
from .gof import KsResult, SampleSet, ecdf, ks_two_sample
from .panelio import (
    RunConfig,
    read_config,
    read_panel,
    read_report,
    read_sample,
    write_panel,
    write_report,
    write_sample,
)
from .studies import (
    GOMPERTZ_STUDY,
    PRESETS,
    WEIBULL_STUDY,
    StudyOutcome,
    StudyPreset,
    run_study,
    write_study,
)

__version__ = "0.1.0"

__all__ = [
    "BetaObjective",
    "BridgeBudgetError",
    "ConfigError",
    "ContinuousPath",
    "EstimationError",
    "FitConfig",
    "FitResult",
    "FlatPaths",
    "GOMPERTZ",
    "GOMPERTZ_STUDY",
    "HOMOGENEOUS",
    "IDENTITY",
    "INHOMOGENEOUS",
    "InitialDistribution",
    "IphfitError",
    "IterationRecord",
    "KsResult",
    "NonConvergenceError",
    "NumericalError",
    "PRESETS",
    "PanelFormatError",
    "PanelObservationSet",
    "RandomStream",
    "RunConfig",
    "SampleSet",
    "ScalingFamily",
    "StarvedStateError",
    "StructuralError",
    "StudyOutcome",
    "StudyPreset",
    "SubIntensityMatrix",
    "SufficientStatistics",
    "ValidationError",
    "ValidationReport",
    "WEIBULL",
    "WEIBULL_STUDY",
    "beta_gradient",
    "beta_loglik",
    "check_absorbable",
    "ecdf",
    "empirical_pi",
    "fit",
    "gd_solve",
    "initialize",
    "iph_cdf",
    "iph_density",
    "ks_two_sample",
    "matrix_exponential",
    "mle_generator",
    "read_config",
    "read_panel",
    "read_report",
    "read_sample",
    "run_study",
    "sem_iteration",
    "validate_generator",
    "write_panel",
    "write_report",
    "write_sample",
    "write_study",
]

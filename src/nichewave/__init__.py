"""Numerical laboratory for persistence under nonlocal dispersal.

Implements the spectral persistence criterion for the model
du/dt = rate (J_eps * u - u) + f(x, u) with a bounded ecological niche:
generalized principal eigenvalues with certified brackets, stationary
states by monotone ball exhaustion, long-time dynamics, dispersal-budget
asymptotics, invasion fitness, and fat-tailed-kernel verdicts.
"""

from .errors import (
    ConfigError,
    DiscretizationInconsistencyError,
    InfiniteMomentError,
    InvalidKernelError,
    IrreducibilityError,
    KernelHypothesisError,
    MonotonicityViolationError,
    NichewaveError,
    NonConvergenceError,
    NumericalFailureError,
    ResourceLimitError,
    StepSizeError,
    SupersolutionConstructionError,
    UnderResolvedKernelError,
    UniquenessViolationError,
)
from .kernels import (
    Kernel,
    ValidationReport,
    kernel_moment,
    rescale_kernel,
    validate_kernel,
)
from .grids import Grid, build_grid, snap_radius
from .growth import GrowthProfile, bump_growth, constant_growth
from .operators import DiscreteOperator, build_operator, sample_taps
from .spectral import (
    ExtrapolationResult,
    SpectralEstimate,
    lambda_p_extrapolate_R,
    principal_eigenvalue,
    rayleigh_lambda_v,
)

__version__ = "0.1.0"

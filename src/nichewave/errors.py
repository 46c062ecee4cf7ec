"""Exception taxonomy shared across the package."""


class NichewaveError(Exception):
    """Base class for all package errors."""


class ConfigError(NichewaveError):
    """The user's input is at fault: a bad config key or value, or a kernel,
    growth profile or time step the model refuses. The CLI exits 1 on it."""


class InvalidKernelError(ConfigError):
    """Kernel samples are non-finite or structurally unusable."""


class KernelHypothesisError(ConfigError):
    """A required kernel hypothesis (H1/H2/H5) is violated."""


class InfiniteMomentError(ConfigError):
    """Requested kernel moment diverges."""


class UnderResolvedKernelError(NichewaveError):
    """Kernel support is finer than the grid spacing."""


class ResourceLimitError(NichewaveError):
    """Requested discretization exceeds configured size limits."""


class IrreducibilityError(NichewaveError):
    """Discrete operator is reducible; Perron iteration inapplicable."""


class NonConvergenceError(NichewaveError):
    """An iteration stopped short of its target (Newton, CG, or a lambda
    bracket that spectrum needs within tol; the eigenvalue routines record
    that miss as met_tol and never raise it)."""


class DiscretizationInconsistencyError(NichewaveError):
    """A structural monotonicity that holds exactly in theory failed
    beyond certified uncertainty; indicates a discretization bug."""


class SupersolutionConstructionError(NichewaveError):
    """No admissible decay exponent found (kernel/growth mismatch)."""


class UniquenessViolationError(NichewaveError):
    """Monotone iterations from below and above disagree."""


class MonotonicityViolationError(NichewaveError):
    """Time iterates violated pointwise comparison beyond slack."""


class StepSizeError(ConfigError):
    """User time step exceeds the monotone-stability bound."""

    def __init__(self, message, bound):
        super().__init__(message)
        self.bound = bound


class NumericalFailureError(NichewaveError):
    """NaN/overflow or a broken certificate mid-run."""

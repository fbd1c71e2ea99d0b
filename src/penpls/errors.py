"""Exception types shared across the package."""


class PenplsError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(PenplsError, ValueError):
    """Invalid configuration (basis size, difference order, grid, ...)."""


class DegenerateVariableError(PenplsError, ValueError):
    """A predictor has fewer than two distinct values."""


class DegenerateResponseError(PenplsError, ValueError):
    """The centered response is identically zero."""


class InvalidKernelError(PenplsError, ValueError):
    """A supplied Gram matrix is not symmetric positive semidefinite."""


class DataError(PenplsError, ValueError):
    """Input data are invalid: a data file could not be parsed into a valid
    dataset, or a predictor or response array passed to a fit, prediction or
    cross-validation holds NaN or an infinity."""


class ModelFormatError(PenplsError, ValueError):
    """A model file has an unknown version tag or is malformed."""


class NumericalError(PenplsError, RuntimeError):
    """An operation broke down numerically (factorization, CG breakdown)."""

"""Exception types shared across the package, and the two input checks
every entry point makes with them: real arrays and integer counts."""
import numpy as np


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


def _as_float(a, name: str) -> np.ndarray:
    """``np.asarray(a, dtype=float)``, or a ``DataError`` if ``a`` is not
    real numbers: complex, strings that are not numbers, other objects."""
    try:
        if np.iscomplexobj(a):
            raise TypeError("complex values")
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} must hold real numbers ({exc})") from None


def _check_int(value, name: str, minimum=None):
    """``ConfigurationError`` unless value is an integer (a bool is not) of
    at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be at least {minimum}")

"""Additive regression via B-spline expansion and penalized partial least
squares, with kernel (dual) and conjugate-gradient formulations."""

from .errors import (ConfigurationError, DataError, DegenerateResponseError,
                     DegenerateVariableError, InvalidKernelError,
                     ModelFormatError, NumericalError, PenplsError)
from .splines import (BasisExpansion, SplineBasis, eval_basis_grid,
                      make_basis, transform)
from .penalty import PenaltySpec, Preconditioner, make_preconditioner
from .pls import FitConfig, PlsFit, nipals_fit, penalized_pls_fit
from .kernel import KernelFit, gram_matrix, kernel_penalized_pls_fit
from .cg import CgResult, pcg_iterates
from .gam import FittedFunction, GamModel, fit_gam, fitted_function, predict
from .selection import CvChoice, CvGrid, default_lambda_grid, loocv
from .model_io import (Dataset, ingest, ingest_for_model, load_model,
                       save_model)

__version__ = "0.1.0"

__all__ = [
    "BasisExpansion", "CgResult", "ConfigurationError", "CvChoice", "CvGrid",
    "DataError", "Dataset", "DegenerateResponseError",
    "DegenerateVariableError",
    "FitConfig", "FittedFunction", "GamModel", "InvalidKernelError",
    "KernelFit", "ModelFormatError", "NumericalError", "PenaltySpec",
    "PenplsError", "PlsFit", "Preconditioner", "SplineBasis",
    "default_lambda_grid", "eval_basis_grid", "fit_gam", "fitted_function",
    "gram_matrix", "ingest", "ingest_for_model", "kernel_penalized_pls_fit",
    "load_model", "loocv", "make_basis", "make_preconditioner", "nipals_fit",
    "pcg_iterates", "penalized_pls_fit", "predict", "save_model", "transform",
]

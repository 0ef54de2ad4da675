"""Probabilistic substrate: PMF algebra and execution-time matrices."""

from .etc import ETCMatrix
from .pet import (
    PAPER_NUM_MACHINE_TYPES,
    PAPER_NUM_TASK_TYPES,
    PETMatrix,
    generate_pet_matrix,
)
from .pmf import CDF_REL_EPS, DEFAULT_MAX_SUPPORT, PMF, batch_cdf_at

__all__ = [
    "PMF",
    "DEFAULT_MAX_SUPPORT",
    "CDF_REL_EPS",
    "batch_cdf_at",
    "PETMatrix",
    "ETCMatrix",
    "generate_pet_matrix",
    "PAPER_NUM_TASK_TYPES",
    "PAPER_NUM_MACHINE_TYPES",
]

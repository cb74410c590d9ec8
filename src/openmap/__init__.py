"""openmap: local-openness certificates for matrix-product maps,
constructive perturbation realization, and linear-network landscape
classification."""

__version__ = "0.1.0"

from .numcore import (  # noqa: F401
    DEFAULT_TOL,
    BoundedBasisResult,
    Tolerances,
    bounded_basis,
    column_space,
    intersection_dim,
    null_space,
    rank,
    svd,
)

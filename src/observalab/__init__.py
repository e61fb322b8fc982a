"""observalab: numerical certification of boundary observability for waves.

The package builds trace systems of Laplace-Dirichlet eigenfunctions on
model domains (the box for d = 1, 2 -- interval and rectangle -- and the
disk), assembles the boundary Gram matrices of the associated exponential
families, certifies the resulting Riesz-type lower bounds, and pushes the
same machinery through memory (visco-elastic) perturbations and boundary
control synthesis.
"""

from .config import (
    CheckFailure,
    ConfigurationError,
    NumericalError,
    RunConfig,
    load_config,
)
from .geometry import DomainSpec, box, disk, domain_from_config, interval, rectangle
from .modes import ModeTable, enumerate_modes

__version__ = "0.1.0"

__all__ = [
    "CheckFailure",
    "ConfigurationError",
    "NumericalError",
    "RunConfig",
    "DomainSpec",
    "ModeTable",
    "box",
    "disk",
    "domain_from_config",
    "enumerate_modes",
    "interval",
    "load_config",
    "rectangle",
    "__version__",
]

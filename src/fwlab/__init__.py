"""Numerical laboratory for second-order PDE comparison machinery on Wasserstein space."""

__version__ = "0.1.0"

from .measures import (  # noqa: F401
    SignedAtomicMeasure,
    Theta,
    dirac,
)
from .fourier_metric import (  # noqa: F401
    FourierConfig,
    KappaKernel,
    L_functional,
    d_F,
    default_config,
    kappa_eval,
    lambda_for_dim,
    make_kappa,
    parallelogram_check,
    rho_F,
)

"""g-function construction, evaluation, iteration and verification."""

from .kernels import (
    ExchangeableKernel,
    majority_kernel,
)
from .gfun import (
    GFunction,
    GAxiomReport,
    FixedPoints,
    kernel_g,
    iterate_g,
    find_fixed_points,
    verify_g_axioms,
)
from .nlv import (
    nlv_rate_flags,
    nlv_kernel,
    nlv_polynomial_g,
    g_pi_batch,
)
from .coalescence import (
    gbar,
)

__all__ = [
    "ExchangeableKernel",
    "majority_kernel",
    "GFunction",
    "GAxiomReport",
    "FixedPoints",
    "kernel_g",
    "iterate_g",
    "find_fixed_points",
    "verify_g_axioms",
    "nlv_rate_flags",
    "nlv_kernel",
    "nlv_polynomial_g",
    "g_pi_batch",
    "gbar",
]

"""Tunnelling probabilities of the quantum harmonic oscillator.

The package pairs an exact oracle for the probability mass beyond the
classical turning points, a finite sum of positive terms from the scaled
Hermite recurrence, with the closed uniform Airy-type
asymptotic expansions of that quantity, and re-derives every expansion
coefficient in exact arithmetic.
"""

from .asymptotics import (
    DomainError,
    ExpansionResult,
    TableRow,
    ZetaPoint,
    a1,
    b0,
    integral_phi_ai2_asym,
    integral_phib0_dai2_asym,
    phi,
    relative_error_table,
    tunnel_probability_asym,
    uniform_psi_approx,
    x_of_zeta,
    zeta_of_x,
)
from .oscillator import OscillatorMode, ScaledValue, eval_density, eval_psi, rel_diff
from .quadrature import (
    NonConvergence,
    QuadratureResult,
    integrate_decaying,
    tunnel_probability_exact,
)
from .specialfn import AiryPair, ai_squared_moment, airy, airy_scaled, erfc, gamma, log_gamma

__version__ = "0.1.0"

# the eigenfunction kernel, oscillator.psi_scaled_grid, runs in numpy
BACKEND = "python"

__all__ = [
    "BACKEND",
    "AiryPair",
    "DomainError",
    "ExpansionResult",
    "NonConvergence",
    "OscillatorMode",
    "QuadratureResult",
    "ScaledValue",
    "TableRow",
    "ZetaPoint",
    "a1",
    "ai_squared_moment",
    "airy",
    "airy_scaled",
    "b0",
    "erfc",
    "eval_density",
    "eval_psi",
    "gamma",
    "integral_phi_ai2_asym",
    "integral_phib0_dai2_asym",
    "integrate_decaying",
    "log_gamma",
    "phi",
    "rel_diff",
    "relative_error_table",
    "tunnel_probability_asym",
    "tunnel_probability_exact",
    "uniform_psi_approx",
    "x_of_zeta",
    "zeta_of_x",
]

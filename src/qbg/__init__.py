"""Distributions on finite discrete energy spectra.

Two families over the same outcome space: the q-exponential distribution
``P(E) ~ [1-(1-q)*beta*E]**(1/(1-q))`` and the moment-constrained exponential
form ``P(E) ~ exp(-sum_n beta_n E**n)``, together with the coefficient
mapping ``beta_n = (1-q)**(n-1) * beta**n / n`` that identifies them, the
quadratic (delta-corrected Boltzmann factor) special case, and a convex dual
solver that recovers multipliers from prescribed raw moments.
"""

from . import errors
from .equivalence import (
    EquivalenceReport,
    clayton_to_q,
    convergence_domain_ratio,
    equivalence_report,
    multipliers_to_q,
    q_to_multipliers,
)
from .extbg import (
    MAX_ORDER,
    CenteredMultiplierVector,
    ClaytonParams,
    MomentVector,
    MultiplierVector,
    bg_entropy,
    center_multipliers,
    central_moments,
    clayton_multipliers,
    ext_distribution,
    load_multipliers,
    log_partition,
    raw_moments,
    uncenter_multipliers,
)
from .maxent import (
    SolverOptions,
    SolverReport,
    dual_gradient,
    dual_hessian,
    solve_multipliers,
)
from .qstat import (
    QParams,
    escort_energy,
    product_distribution,
    q_distribution,
    tsallis_entropy,
)
from .spectrum import (
    Distribution,
    EnergySpectrum,
    load_spectrum,
    make_spectrum,
    rescale,
)

__version__ = "0.1.0"

__all__ = [
    "CenteredMultiplierVector",
    "ClaytonParams",
    "Distribution",
    "EnergySpectrum",
    "EquivalenceReport",
    "MAX_ORDER",
    "MomentVector",
    "MultiplierVector",
    "QParams",
    "SolverOptions",
    "SolverReport",
    "bg_entropy",
    "center_multipliers",
    "central_moments",
    "clayton_multipliers",
    "clayton_to_q",
    "convergence_domain_ratio",
    "dual_gradient",
    "dual_hessian",
    "equivalence_report",
    "errors",
    "escort_energy",
    "ext_distribution",
    "load_multipliers",
    "load_spectrum",
    "log_partition",
    "make_spectrum",
    "multipliers_to_q",
    "product_distribution",
    "q_distribution",
    "q_to_multipliers",
    "raw_moments",
    "rescale",
    "solve_multipliers",
    "tsallis_entropy",
    "uncenter_multipliers",
]

"""Distributions on finite discrete energy spectra.

Two families over the same outcome space: the q-exponential distribution
``P(E) ~ [1-(1-q)*beta*E]**(1/(1-q))`` and the moment-constrained exponential
form ``P(E) ~ exp(-sum_n beta_n E**n)``, together with the coefficient
mapping ``beta_n = (1-q)**(n-1) * beta**n / n`` that identifies them, the
quadratic (delta-corrected Boltzmann factor) special case, and a convex dual
solver that recovers multipliers from prescribed raw moments.

The package loads lazily: ``import qbg`` imports only :mod:`qbg.errors`, and
each public name, or submodule such as ``qbg.extbg``, is imported on first
access (PEP 562).  :mod:`qbg.params` and :mod:`qbg.commands` need no numpy;
every other module imports it.
"""

import importlib

from . import errors

#: The module that defines each public name; the name is imported from it
#: on first access.
_HOMES = {
    name: module
    for module, names in {
        "params": ("MAX_ORDER", "CenteredMultiplierVector", "ClaytonParams",
                   "MomentVector", "MultiplierVector", "QParams", "clayton_multipliers",
                   "clayton_to_q", "load_multipliers", "multipliers_to_q",
                   "q_to_multipliers"),
        "spectrum": ("Distribution", "EnergySpectrum", "load_spectrum", "make_spectrum",
                     "rescale"),
        "qstat": ("escort_energy", "product_distribution", "q_distribution",
                  "tsallis_entropy"),
        "extbg": ("bg_entropy", "center_multipliers", "ext_distribution",
                  "log_partition", "raw_moments", "uncenter_multipliers"),
        "equivalence": ("EquivalenceReport", "convergence_domain_ratio",
                        "equivalence_report"),
        "maxent": ("SolverOptions", "SolverReport", "dual_gradient", "dual_hessian",
                   "solve_multipliers"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({*_HOMES.values(), "cli", "commands"})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


__version__ = "0.1.0"

__all__ = sorted([*_HOMES, "errors"])

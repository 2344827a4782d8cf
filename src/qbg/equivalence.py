"""Mapping between the deformation parameters (q, beta) and multiplier vectors.

Expanding ``log([1-(1-q)*beta*E]**(1/(1-q)))`` as a series in E gives the
exponential-polynomial form with

    beta_n = (1-q)**(n-1) * beta**n / n,

exact term by term inside the domain ``max_i |(1-q)*beta*E_i| < 1`` where the
logarithm series converges.  The quadratic special case truncates at n = 2 and
matches the delta-corrected Boltzmann factor with q = 1 - 2*delta.

The parameter mappings below use plain Python arithmetic, so exact numeric
types (e.g. ``fractions.Fraction``) pass through unchanged; this lets the
closed-form identities be checked with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutsideConvergenceDomain, ZeroLeadingMultiplier
from .extbg import MultiplierVector, _normalize, _require_order, _truncated_exponents
from .qstat import QParams, q_distribution
from .spectrum import EnergySpectrum

#: Predicted coefficients smaller than this are compared absolutely
#: (tolerance 1e-12) instead of relatively in the inverse mapping.
_ABS_FALLBACK_FLOOR = 1e-300
_ABS_FALLBACK_TOL = 1e-12


@dataclass(frozen=True)
class EquivalenceReport:
    """Sup-norm distances between truncated exponential-polynomial
    distributions and the exact q-distribution, per truncation order."""

    orders: tuple[int, ...]
    sup_distances: tuple[float, ...]
    domain_ratio: float

    def __post_init__(self):
        if len(self.orders) != len(self.sup_distances):
            raise ValueError("orders and distances must have equal length")
        if any(d < 0 for d in self.sup_distances):
            raise ValueError("distances must be >= 0")
        if self.domain_ratio < 0:
            raise ValueError("domain ratio must be >= 0")


def _mapped(one_minus_q, beta, n: int):
    """beta_n = (1-q)**(n-1) * beta**n / n; ``ValueError`` naming n if it overflows.

    At q = 1 exactly, beta_n for n >= 2 is an exact zero of the formula's
    type, whatever beta**n would be; a (1-q)**(n-1) that merely underflows
    still goes through the overflow check."""
    if one_minus_q == 0 and n >= 2:
        return one_minus_q * beta / n
    try:
        coeff = one_minus_q ** (n - 1) * beta ** n / n
        if math.isfinite(coeff):
            return coeff
    except OverflowError:
        pass
    raise ValueError(f"multiplier beta_{n} = (1-q)**{n - 1} * beta**{n} / {n} overflows")


def q_to_multipliers(params: QParams, order: int) -> MultiplierVector:
    """Multipliers beta_n = (1-q)**(n-1) * beta**n / n for n = 1..order.

    At q = 1 this is (beta, 0, ..., 0) for any beta: the series terminates.
    A beta_n out of the float range raises ``ValueError``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    _require_order(order)
    one_minus_q = 1 - params.q
    return MultiplierVector(
        tuple(_mapped(one_minus_q, params.beta, n) for n in range(1, order + 1))
    )


def _matched_q(coeffs: tuple, tol: float):
    """``q = 1 - 2*beta_2/beta_1**2`` (1.0 at order 1) if every beta_n from
    n = 2 on matches the mapping from (q, beta_1), else None.  A predicted
    beta_n out of the float range raises ``ValueError``."""
    beta = coeffs[0]
    q = 1 - 2 * coeffs[1] / (beta * beta) if len(coeffs) >= 2 else 1.0
    one_minus_q = 1 - q
    for n in range(2, len(coeffs) + 1):
        predicted = _mapped(one_minus_q, beta, n)
        limit = _ABS_FALLBACK_TOL if abs(predicted) < _ABS_FALLBACK_FLOOR else tol * abs(predicted)
        if abs(coeffs[n - 1] - predicted) > limit:
            return None
    return q


def multipliers_to_q(m: MultiplierVector, tol: float):
    """Invert the mapping: recover (q, beta) from a multiplier vector.

    The candidate is ``beta = beta_1`` and ``q = 1 - 2*beta_2/beta_1**2``
    (q = 1 when the order is 1 or beta_2 = 0).  It is returned only if every
    remaining beta_n matches ``(1-q)**(n-1) * beta**n / n`` within ``tol``
    relative (absolute 1e-12 for predicted values below 1e-300) and
    :class:`QParams` accepts it; otherwise None.  Where floats under- or
    overflow on the way, the check is redone in exact rational arithmetic.
    A negative beta_1 also yields None, since a nonnegative inverse
    temperature cannot reproduce it.  A NaN ``tol`` raises ``ValueError``:
    every comparison with it is false, so it would accept any vector.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    b1 = m.coeffs[0]
    if b1 == 0:
        raise ZeroLeadingMultiplier("the first multiplier must be nonzero")
    if b1 < 0:
        return None
    try:
        q = _matched_q(m.coeffs, tol)
        return None if q is None else QParams(q, b1)
    except (ArithmeticError, ValueError):
        pass
    try:
        q = _matched_q(tuple(map(Fraction, m.coeffs)), tol)
        return None if q is None else QParams(float(q), b1)
    except (OverflowError, ValueError):
        return None


def clayton_to_q(delta):
    """q = 1 - 2*delta: the deformation index matching the quadratic
    Boltzmann-factor correction."""
    if not math.isfinite(float(delta)):
        raise ValueError(f"delta must be finite, got {delta!r}")
    return 1 - 2 * delta


def convergence_domain_ratio(spectrum: EnergySpectrum, params: QParams) -> float:
    """max_i |(1-q)*beta*E_i|, at an end level as rounding is monotone; the
    expansion converges at every level iff this is < 1."""
    k = (1.0 - params.q) * params.beta
    return max(abs(k * float(spectrum.levels[0])), abs(k * float(spectrum.levels[-1])))


def equivalence_report(
    spectrum: EnergySpectrum, params: QParams, max_order: int
) -> EquivalenceReport:
    """Sup-norm distance to the exact q-distribution for each truncation
    order N = 1..max_order.

    Refuses with :class:`OutsideConvergenceDomain` when the domain ratio is
    >= 1: there the truncated series is not guaranteed to approach the
    q-distribution and the distances would be noise.

    The order-N exponents come from one pass over the spectrum's cached
    powers, in the summation order of a fresh order-N
    :func:`~qbg.extbg.ext_distribution`, so each distance is the one a
    fresh evaluation gives.  Everything runs in place: with the spectrum's
    caches warm, the call holds six level-sized arrays at its peak (the
    exact probabilities, the running sum, and a (4, levels) scratch block
    whose first two rows hold ``log g - s`` and the probabilities).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    _require_order(max_order)
    ratio = convergence_domain_ratio(spectrum, params)
    if ratio >= 1.0:
        raise OutsideConvergenceDomain(
            f"domain ratio {ratio} >= 1; the expansion does not converge on this spectrum"
        )
    exact, _ = q_distribution(spectrum, params)
    log_g = spectrum._log_g()
    # shared: the sweep writes it only inside next(), this loop only between yields
    scratch = np.empty((4, len(spectrum)))
    log_w, probs = scratch[0], scratch[1]
    distances = []
    # one errstate for the whole sweep, which needs it (see _truncated_exponents)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _truncated_exponents(spectrum, q_to_multipliers(params, max_order), scratch):
            _normalize(np.subtract(log_g, s, out=log_w), probs)
            np.subtract(probs, exact.probs, out=probs)
            distances.append(float(np.abs(probs, out=probs).max()))
    return EquivalenceReport(tuple(range(1, max_order + 1)), tuple(distances), ratio)

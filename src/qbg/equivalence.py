"""How close the truncated exponential-polynomial family comes to the q-distribution.

The multiplier mapping ``beta_n = (1-q)**(n-1) * beta**n / n``, defined in
:mod:`qbg.params`, is exact term by term inside the domain
``max_i |(1-q)*beta*E_i| < 1`` where the logarithm series converges;
:func:`equivalence_report` measures, for each truncation order N, the
sup-norm distance between the order-N distribution and the exact
q-distribution on a spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideConvergenceDomain
from .extbg import _distributions
from .params import QParams, _require_order, q_to_multipliers
from .qstat import q_distribution
from .spectrum import EnergySpectrum


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

    The order-N distributions come from one sweep over the spectrum's
    cached powers (:func:`~qbg.extbg._distributions`), each bit for bit a
    fresh order-N :func:`~qbg.extbg.ext_distribution`.  With the spectrum's
    caches warm, the call holds five level-sized arrays at its peak below
    order 16, six from 16 on: the exact probabilities, and the sweep's
    running sum and scratch block (three rows, four from order 16), whose
    first two rows hold ``log g - s`` and the probabilities."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    _require_order(max_order)
    ratio = convergence_domain_ratio(spectrum, params)
    if ratio >= 1.0:
        raise OutsideConvergenceDomain(
            f"domain ratio {ratio} >= 1; the expansion does not converge on this spectrum"
        )
    exact, _ = q_distribution(spectrum, params)
    distances = []
    for probs, _ in _distributions(spectrum, q_to_multipliers(params, max_order)):
        np.subtract(probs, exact.probs, out=probs)
        distances.append(float(np.abs(probs, out=probs).max()))
    return EquivalenceReport(tuple(range(1, max_order + 1)), tuple(distances), ratio)

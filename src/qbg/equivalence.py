"""How close the truncated exponential-polynomial family comes to the q-distribution.

The multiplier mapping ``beta_n = (1-q)**(n-1) * beta**n / n``, defined in
:mod:`qbg.params`, is exact term by term inside the domain
``max_i |(1-q)*beta*E_i| < 1`` where the logarithm series converges;
:func:`equivalence_report` measures, for each truncation order N, the
sup-norm distance between the order-N distribution and the exact
q-distribution on a spectrum.
"""

from __future__ import annotations

import numpy as np

from .errors import OutsideConvergenceDomain
from .extbg import _distributions, _scale_powers
from .params import QParams, _Record, _require_order, q_to_multipliers
from .qstat import q_distribution
from .spectrum import EnergySpectrum


class EquivalenceReport(_Record):
    """Sup-norm distances between truncated exponential-polynomial
    distributions and the exact q-distribution, per truncation order."""

    __match_args__ = ("orders", "sup_distances", "domain_ratio")

    def __init__(self, orders: tuple[int, ...], sup_distances: tuple[float, ...],
                 domain_ratio: float):
        if len(orders) != len(sup_distances):
            raise ValueError("orders and distances must have equal length")
        if any(d < 0 for d in sup_distances):
            raise ValueError("distances must be >= 0")
        if domain_ratio < 0:
            raise ValueError("domain ratio must be >= 0")
        self.__dict__.update(orders=orders, sup_distances=sup_distances,
                             domain_ratio=domain_ratio)


def convergence_domain_ratio(spectrum: EnergySpectrum, params: QParams) -> float:
    """max_i |(1-q)*beta*E_i|, as |(1-q)*beta| * max|E| (rounding is monotone
    and symmetric); the expansion converges at every level iff this is < 1."""
    return abs((1.0 - params.q) * params.beta) * spectrum._max_abs()


def equivalence_report(
    spectrum: EnergySpectrum, params: QParams, max_order: int
) -> EquivalenceReport:
    """Sup-norm distance to the exact q-distribution for each truncation
    order N = 1..max_order.

    Refuses with :class:`OutsideConvergenceDomain` when the domain ratio is
    >= 1: there the truncated series is not guaranteed to approach the
    q-distribution and the distances would be noise.  At q != 1 and
    beta != 0, where no beta_n is zero, a ``max|E|**n`` that overflows for
    an n up to ``max_order`` raises :class:`NonFiniteExponent`: a beta_n
    that underflowed to 0 would drop a term that is not small.

    The order-N distributions come from one sweep over the spectrum's
    cached powers (:func:`~qbg.extbg._distributions`), each bit for bit a
    fresh order-N :func:`~qbg.extbg.ext_distribution`.  With the spectrum's
    caches warm, the call holds five level-sized arrays at its peak below
    order 16, six from 16 on: the exact probabilities, and the sweep's
    running sum and scratch block (three rows, four from order 16), whose
    first two rows hold ``log g - s`` and the probabilities."""
    _require_order(max_order, "max_order")
    ratio = convergence_domain_ratio(spectrum, params)
    if ratio >= 1.0:
        raise OutsideConvergenceDomain(
            f"domain ratio {ratio} >= 1; the expansion does not converge on this spectrum"
        )
    if params.q != 1 and params.beta != 0:   # no beta_n is an exact zero
        _scale_powers(spectrum._max_abs(), max_order, underflow=False)
    exact, _ = q_distribution(spectrum, params)
    distances = []
    for probs, _ in _distributions(spectrum, q_to_multipliers(params, max_order)):
        np.subtract(probs, exact.probs, out=probs)
        distances.append(float(np.abs(probs, out=probs).max()))
    return EquivalenceReport(tuple(range(1, max_order + 1)), tuple(distances), ratio)

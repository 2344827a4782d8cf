"""Deformed-exponential (Tsallis-side) statistics on finite spectra.

The unnormalized weight of a level is ``[1 - (1-q)*beta*E]**(1/(1-q))``,
which reduces to ``exp(-beta*E)`` at q = 1.  Where the bracket is
nonpositive the weight is zero; such levels are reported with the CUTOFF
sentinel and carry probability exactly 0.

Entropy uses k = 1 (nats):  ``S_q = (1 - sum_i P_i**q) / (q - 1)`` with the
q -> 1 limit ``-sum_i P_i * log(P_i)``.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllLevelsCutOff, LengthMismatch
from .extbg import _normalize
from .spectrum import Distribution, EnergySpectrum

#: Below this |q - 1| the exact Boltzmann/Gibbs formulas are used.
Q_ONE_EPS = 1e-12


class _CutOff:
    """Sentinel for levels outside the support (zero weight)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "CUTOFF"


CUTOFF = _CutOff()


@dataclass(frozen=True)
class QParams:
    """Entropic index q and inverse temperature beta (beta = 0 is the
    infinite-temperature limit and gives the uniform distribution)."""

    q: float
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q!r}")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")


def q_log_weight(params: QParams, energy: float):
    """Log of the unnormalized weight at one energy, or CUTOFF.

    Computed as ``log1p(-(1-q)*beta*E) / (1-q)``, which is stable for q
    near 1; below |q-1| = 1e-12 the exact value ``-beta*E`` is returned.
    """
    q = params.q
    if abs(q - 1.0) < Q_ONE_EPS:
        return -params.beta * energy
    u = -(1.0 - q) * params.beta * energy
    if 1.0 + u <= 0.0:
        return CUTOFF
    return math.log1p(u) / (1.0 - q)


def q_distribution(
    spectrum: EnergySpectrum, params: QParams
) -> tuple[Distribution, float]:
    """Normalized q-exponential distribution and its log partition function.

    ``P_i`` is proportional to ``g_i * [1-(1-q)*beta*E_i]**(1/(1-q))``;
    cut-off levels get probability exactly 0.  The log partition function
    ``log(sum_i g_i * w_i)`` is accumulated in log space (max shift), so
    large exponents do not overflow.  Each level's log weight equals
    :func:`q_log_weight`'s, with ``-inf`` for a cut-off level.
    """
    q, beta = params.q, params.beta
    e = spectrum.levels
    if abs(q - 1.0) < Q_ONE_EPS:
        log_w = -beta * e
    else:
        u = -(1.0 - q) * beta * e
        active = 1.0 + u > 0.0
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            raise AllLevelsCutOff(
                f"every level of the spectrum is cut off at q={params.q}, beta={params.beta}"
            )
        log_w = np.full(len(e), -np.inf)
        # math.log1p, not np.log1p: the two differ in the last bit for some u;
        # a memoryview hands it Python floats without building a list
        log_w[active] = np.fromiter(
            map(math.log1p, memoryview(u[active])), np.float64, n_active
        ) / (1.0 - q)
    a = np.log(spectrum.degeneracies)
    a += log_w
    probs, log_z = _normalize(a, log_w)
    return Distribution(probs), log_z


def tsallis_entropy(dist: Distribution, q: float) -> float:
    """Entropy of order q with k = 1; zero-probability terms contribute 0.

    Evaluated as ``-sum_i P_i * expm1((q-1)*log(P_i)) / (q-1)``, which is
    exact in the q -> 1 limit direction; |q-1| < 1e-12 routes to the plain
    Gibbs formula.
    """
    p = dist.probs[dist.probs > 0]
    if abs(q - 1.0) < Q_ONE_EPS:
        return float(-(p * np.log(p)).sum())
    return float(-(p * np.expm1((q - 1.0) * np.log(p))).sum() / (q - 1.0))


def escort_energy(dist: Distribution, spectrum: EnergySpectrum, q: float) -> float:
    """Escort energy ``sum_i g_i**(1-q) * P_i**q * E_i``.

    Level probability is split equally among the g_i states of a level
    before raising to the power q, so each state carries ``(P_i/g_i)**q``
    and the degeneracy contributes the factor ``g_i**(1-q)``.
    """
    if len(dist) != len(spectrum):
        raise LengthMismatch(
            f"{len(spectrum)} levels but {len(dist)} probabilities"
        )
    p = dist.probs
    e = spectrum.levels
    g = spectrum.degeneracies.astype(np.float64)
    mask = p > 0
    terms = g[mask] ** (1.0 - q) * p[mask] ** q * e[mask]
    return float(terms.sum())


def product_distribution(a: Distribution, b: Distribution) -> Distribution:
    """Joint distribution of two independent systems, row-major:
    entry ``i*len(b) + j`` equals ``a_i * b_j``."""
    return Distribution(np.outer(a.probs, b.probs).ravel())

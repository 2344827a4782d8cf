"""Deformed-exponential (Tsallis-side) statistics on finite spectra.

The unnormalized weight of a level is ``[1 - (1-q)*beta*E]**(1/(1-q))``,
which reduces to ``exp(-beta*E)`` at q = 1.  Where the bracket is
nonpositive the weight is zero: such a level is cut off, its log weight is
``-inf`` and its probability exactly 0.

Entropy uses k = 1 (nats):  ``S_q = (1 - sum_i P_i**q) / (q - 1)`` with the
q -> 1 limit ``-sum_i P_i * log(P_i)``.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import numpy as np

from .errors import AllLevelsCutOff
from .extbg import _normalize, bg_entropy
from .params import QParams, _require_finite
from .spectrum import Distribution, EnergySpectrum, _require_same_levels

#: Below this |q - 1| the exact Boltzmann/Gibbs formulas are used.
Q_ONE_EPS = 1e-12


def log_weights(levels: np.ndarray, params: QParams) -> np.ndarray:
    """Per-level log weights ``log1p(-(1-q)*beta*E) / (1-q)``, or the exact
    ``-beta*E`` below |q-1| = 1e-12, with ``-inf`` for a cut-off level: the
    one weight and cut-off rule behind q_distribution.  Raises
    :class:`AllLevelsCutOff` if every level is cut off; returns a new array."""
    q, beta = params.q, params.beta
    if abs(q - 1.0) < Q_ONE_EPS:
        with np.errstate(over="ignore"):   # beta*E past the float range: weight 0
            return -beta * levels
    n = len(levels)
    # numpy's float64 log1p is a SIMD kernel that differs from libm's in the
    # last bit for a few percent of inputs.  numpy runs it when input and
    # output do not overlap or coincide exactly; when they partly overlap it
    # calls libm's log1p, as math.log1p does, one element at a time.  So u
    # goes into buf[1:n+1], ahead of a zero pad, and log1p of buf[1:] is
    # written one element lower, into buf[:-1]; the pad keeps a one-level
    # call overlapping too.
    buf = np.empty(n + 2)
    buf[-1] = 0.0
    with np.errstate(over="ignore"):   # u = +-inf: cut off, or log weight -inf
        u = np.multiply(-(1.0 - q) * beta, levels, out=buf[1:-1])
    # cut off where 1 + u <= 0, or u is NaN: the same levels as u > -1 fails
    cut = np.logical_not(u > -1.0)
    if cut.all():
        raise AllLevelsCutOff(
            f"every level of the spectrum is cut off at q={params.q}, beta={params.beta}"
        )
    np.copyto(u, 0.0, where=cut)
    log_w = np.log1p(buf[1:], out=buf[:-1])[:n]
    log_w /= 1.0 - q
    np.copyto(log_w, -np.inf, where=cut)
    return log_w


def _q_probs(spectrum: EnergySpectrum, params: QParams) -> tuple[np.ndarray, float]:
    """:func:`q_distribution`'s probabilities, as a new array that is not
    checked to sum to 1, and its log partition function."""
    log_w = log_weights(spectrum.levels, params)
    return _normalize(spectrum._log_g() + log_w, log_w)


def q_distribution(
    spectrum: EnergySpectrum, params: QParams
) -> tuple[Distribution, float]:
    """Normalized q-exponential distribution and its log partition function.

    ``P_i`` is proportional to ``g_i * [1-(1-q)*beta*E_i]**(1/(1-q))``;
    cut-off levels get probability exactly 0.  The log partition function
    ``log(sum_i g_i * w_i)`` is accumulated in log space (max shift), so
    large exponents do not overflow.
    """
    probs, log_z = _q_probs(spectrum, params)
    return Distribution(probs), log_z


def tsallis_entropy(dist: Distribution, q: float) -> float:
    """Entropy of order q with k = 1 over the level probabilities P_i (not
    over states, as :func:`escort_energy` takes them: a level of
    degeneracy g_i counts once); zero-probability terms contribute 0.

    Evaluated as ``-sum_i P_i * expm1((q-1)*log(P_i)) / (q-1)``, which is
    exact in the q -> 1 limit direction; |q-1| < 1e-12 routes to
    :func:`~qbg.extbg.bg_entropy`.  A non-finite q, or an entropy past the
    float range (as at a large negative q), raises ``ValueError``.
    """
    _require_finite("q", q)
    if abs(q - 1.0) < Q_ONE_EPS:
        return bg_entropy(dist)
    p = dist.probs[dist.probs > 0]
    with np.errstate(all="ignore"):   # an overflow makes the entropy non-finite
        entropy = float(-(p * np.expm1((q - 1.0) * np.log(p))).sum() / (q - 1.0))
    _require_finite(f"tsallis_entropy at q={q!r}", entropy)
    return entropy


def escort_energy(dist: Distribution, spectrum: EnergySpectrum, q: float) -> float:
    """Escort energy ``sum_i g_i**(1-q) * P_i**q * E_i``.

    Level probability is split equally among the g_i states of a level
    before raising to the power q, so each state carries ``(P_i/g_i)**q``
    and the degeneracy contributes the factor ``g_i**(1-q)``; the entropies
    take the level probabilities instead, so the two agree only where
    every g_i is 1.  A non-finite q, or an energy past the float range or
    NaN (a ``P_i**q`` that overflows, times E_i = 0), raises ``ValueError``.
    """
    _require_finite("q", q)
    _require_same_levels(dist, spectrum)
    p = dist.probs
    e = spectrum.levels
    g = spectrum.degeneracies.astype(np.float64)
    mask = p > 0
    with np.errstate(all="ignore"):   # an overflow makes the energy non-finite
        energy = float((g[mask] ** (1.0 - q) * p[mask] ** q * e[mask]).sum())
    _require_finite(f"escort_energy at q={q!r}", energy)
    return energy


def product_distribution(a: Distribution, b: Distribution) -> Distribution:
    """Joint distribution of two independent systems, row-major:
    entry ``i*len(b) + j`` equals ``a_i * b_j``, each factor first divided
    by its own sum: an accepted factor's sum may be off by up to the
    normalization tolerance, and an unscaled product's by both errors."""
    return Distribution(np.outer(a.probs / a.probs.sum(), b.probs / b.probs.sum()).ravel())

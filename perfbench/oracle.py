"""Reference values computed without any qbg code.

Two kinds of reference:

* ``mp_*`` functions evaluate the q-exponential and exponential-polynomial
  distributions, entropies and multipliers in mpmath at 50 significant
  digits.  They are used on small spectra, where their cost is bearable.
* ``np_*`` functions evaluate the same distributions in float64 numpy with
  their own log-sum-exp; they are used on 1e5-level spectra.

``certified_bound`` is the analytic truncation bound of the multiplier
series: with x_i = (1-q)*beta*E_i and r = max|x_i| < 1 the discarded
exponent terms sum to at most R_N = r**(N+1) / ((N+1)*(1-r)*|1-q|), so the
sup distance between the order-N truncation and the exact q-distribution is
at most max(p) * (exp(2*R_N) - 1).  ``rounding_term`` is the float64 error
allowance added to it (and used as the tolerance when a float distance is
compared with a 50-digit one).
"""

from __future__ import annotations

import math

import numpy as np

DPS = 50
EPS = float(np.finfo(float).eps)

#: |float - reference| allowed for probabilities (which are <= 1).
PROB_TOL = 1e-13
#: Relative tolerance for log Z, entropies, moments and multipliers.
REL_TOL = 1e-13
#: Sup distance allowed between a recovered and a generating distribution,
#: on small spectra (absolute) and, on large ones, relative to max(p).
SOLVE_TOL = 1e-8
SOLVE_REL_TOL = 1e-7
#: Safety factor on the first-order float error estimate of rounding_term.
ROUNDING_SAFETY = 8.0


def _mp():
    # mpmath is imported on first use so it stays out of set-up timings
    from mpmath import mp

    return mp


def mp_q_distribution(levels, degs, q, beta):
    """Level probabilities ``g*[1-(1-q)*beta*E]**(1/(1-q)) / Z`` (0 where the
    bracket is <= 0) and log Z, for q != 1."""
    mp = _mp()
    with mp.workdps(DPS):
        q, beta = mp.mpf(q), mp.mpf(beta)
        log_w = []
        for e, g in zip(levels, degs):
            bracket = 1 - (1 - q) * beta * mp.mpf(e)
            log_w.append(mp.log(g) + mp.log(bracket) / (1 - q) if bracket > 0 else None)
        return _normalize(mp, log_w)


def mp_ext_distribution(levels, degs, coeffs):
    """Level probabilities ``g*exp(-sum_n b_n E**n) / Z`` and log Z."""
    mp = _mp()
    with mp.workdps(DPS):
        b = [mp.mpf(c) for c in coeffs]
        log_w = []
        for e, g in zip(levels, degs):
            e = mp.mpf(e)
            log_w.append(mp.log(g) - mp.fsum(c * e ** (n + 1) for n, c in enumerate(b)))
        return _normalize(mp, log_w)


def _normalize(mp, log_w):
    top = max(a for a in log_w if a is not None)
    log_z = top + mp.log(mp.fsum(mp.exp(a - top) for a in log_w if a is not None))
    probs = [mp.mpf(0) if a is None else mp.exp(a - log_z) for a in log_w]
    return probs, log_z


def mp_tsallis_entropy(probs, q):
    mp = _mp()
    with mp.workdps(DPS):
        pos = [p for p in probs if p > 0]
        q = mp.mpf(q)
        return (1 - mp.fsum(p ** q for p in pos)) / (q - 1)


def mp_gibbs_entropy(probs):
    mp = _mp()
    with mp.workdps(DPS):
        return -mp.fsum(p * mp.log(p) for p in probs if p > 0)


def mp_multipliers(q, beta, order):
    """beta_n = (1-q)**(n-1) * beta**n / n for n = 1..order."""
    mp = _mp()
    with mp.workdps(DPS):
        q, beta = mp.mpf(q), mp.mpf(beta)
        return [(1 - q) ** (n - 1) * beta ** n / n for n in range(1, order + 1)]


def mp_raw_moments(probs, levels, order):
    mp = _mp()
    with mp.workdps(DPS):
        return [mp.fsum(p * mp.mpf(e) ** n for p, e in zip(probs, levels))
                for n in range(1, order + 1)]


def sup_distance(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


def np_ext_distribution(levels, degs, coeffs):
    """Float64 exponential-polynomial probabilities with a max shift."""
    e = np.asarray(levels, dtype=float)
    a = np.log(np.asarray(degs, dtype=float))
    for n, c in enumerate(coeffs, start=1):
        a = a - float(c) * e ** n
    w = np.exp(a - a.max())
    return w / w.sum()


def np_q_distribution(levels, degs, q, beta):
    """Float64 q-exponential probabilities (q != 1); levels past the cutoff
    get 0."""
    e = np.asarray(levels, dtype=float)
    u = -(1.0 - q) * beta * e
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(u > -1.0, np.log(np.asarray(degs, dtype=float)) + np.log1p(u) / (1.0 - q),
                     -np.inf)
    w = np.exp(a - a.max())
    return w / w.sum()


def domain_ratio(levels, q, beta):
    return float(np.max(np.abs((1.0 - q) * beta * np.asarray(levels, dtype=float))))


def certified_bound(p_max, r, q, order):
    """max(p) * (exp(2*R_N) - 1) for q != 1; infinite once the exponent
    overflows."""
    remainder = r ** (order + 1) / ((order + 1) * (1.0 - r) * abs(1.0 - q))
    if 2.0 * remainder > 700.0:
        return math.inf
    return p_max * math.expm1(2.0 * remainder)


def rounding_term(p_max, r, beta, levels, degs, order):
    """Float64 error allowance for one order-N sup distance.

    Every exponent and log Z is bounded in magnitude by
    M = beta*max|E|/(1-r) + log(sum g); evaluating them and the N-term
    series costs a relative error of about eps*(N + 2 + M) in each
    probability, scaled by ROUNDING_SAFETY.
    """
    e_abs = max(abs(levels[0]), abs(levels[-1]))
    magnitude = beta * e_abs / (1.0 - r) + math.log(sum(degs))
    return p_max * math.expm1(ROUNDING_SAFETY * EPS * (order + 2 + magnitude))

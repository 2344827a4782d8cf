"""Differential tests against 50-digit mpmath references.

The references below are written from the defining formulas and share no
code with qbg.  Every input is a float64 value, converted exactly to mpmath,
so the only error left is qbg's own float64 rounding.  Each tolerance is a
small multiple of the float64 epsilon, scaled by the magnitude of the
exponents the computation rounds, and is fixed before the comparison.

Near q = 1 qbg switches formulas at |1 - q| = 1e-12: below it the
Boltzmann-Gibbs forms are used exactly.  The cases straddle that switch on
both sides, and inside it the tests also bound the distance to the true
q-quantities by the first term of their series in 1 - q.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from qbg import (
    Distribution,
    MultiplierVector,
    QParams,
    ext_distribution,
    log_partition,
    make_spectrum,
    q_distribution,
    tsallis_entropy,
)

DPS = 50
EPS = np.finfo(np.float64).eps
#: |1 - q| below which qbg uses the Boltzmann-Gibbs forms
SWITCH = 1e-12
TINY = np.finfo(np.float64).tiny


def ref_normalize(log_w):
    """``(log Z, probabilities)`` from per-level log weights; None is a zero
    weight."""
    top = max(a for a in log_w if a is not None)
    log_z = top + mp.log(mp.fsum(mp.exp(a - top) for a in log_w if a is not None))
    return log_z, [mp.mpf(0) if a is None else mp.exp(a - log_z) for a in log_w]


def ref_q_log_weights(levels, degs, q, beta):
    """log(g_i * [1 - (1-q)*beta*E_i]**(1/(1-q))), or None where the bracket
    is not positive; the q = 1 limit is log(g_i) - beta*E_i."""
    q, beta = mp.mpf(q), mp.mpf(beta)
    out = []
    for e, g in zip(levels, degs):
        e = mp.mpf(e)
        if q == 1:
            out.append(mp.log(g) - beta * e)
            continue
        bracket = 1 - (1 - q) * beta * e
        out.append(mp.log(g) + mp.log(bracket) / (1 - q) if bracket > 0 else None)
    return out


def ref_ext_log_weights(levels, degs, coeffs):
    """log(g_i) - sum_n beta_n * E_i**n."""
    b = [mp.mpf(c) for c in coeffs]
    return [mp.log(g) - mp.fsum(c * mp.mpf(e) ** n for n, c in enumerate(b, start=1))
            for e, g in zip(levels, degs)]


def ref_tsallis(probs, q):
    """(1 - sum_i P_i**q) / (q - 1) over the positive P_i, with the 1 written
    as sum_i P_i: float64 probabilities sum to 1 only within rounding, and
    1/(q - 1) would amplify that; -sum P log P at q = 1."""
    pos = [mp.mpf(p) for p in probs if p > 0]
    q = mp.mpf(q)
    if q == 1:
        return -mp.fsum(p * mp.log(p) for p in pos)
    return (mp.fsum(pos) - mp.fsum(p ** q for p in pos)) / (q - 1)


def q_rtol(levels, q, beta, log_w):
    """Relative tolerance on q-probabilities: (1-q)*beta*E rounds twice, and
    log1p of it over (1-q) amplifies that by beta*|E| / bracket."""
    q, beta = mp.mpf(q), mp.mpf(beta)
    cond = max(beta * abs(mp.mpf(e)) / (1 - (1 - q) * beta * mp.mpf(e))
               for e, a in zip(levels, log_w) if a is not None)
    big = max(abs(a) for a in log_w if a is not None)
    return 16 * EPS * (1.0 + float(big + cond))


def assert_probs_close(probs, ref, rtol):
    """Every probability within ``rtol`` relative of the reference, or within
    the smallest normal float64 where the reference underflows; a zero
    reference (a cut-off level) must be an exact 0.0."""
    for p, r in zip(probs.tolist(), ref):
        if r == 0:
            assert p == 0.0
        else:
            assert abs(mp.mpf(p) - r) <= rtol * r + TINY, (p, r)


def spectrum_cases():
    rng = np.random.default_rng(50)
    small = np.unique(rng.uniform(0.0, 5.0, 40))
    # exponents near 1e4 in magnitude: only the max shift keeps exp finite
    far = 1e4 + np.unique(rng.uniform(0.0, 5.0, 30))
    signed = np.unique(rng.uniform(-3.0, 3.0, 30))
    return [
        ([float(e) for e in range(6)], [1] * 6),
        (small.tolist(), rng.integers(1, 5, small.size).tolist()),
        (far.tolist(), rng.integers(1, 5, far.size).tolist()),
        (signed.tolist(), rng.integers(1, 3, signed.size).tolist()),
    ]


SPECTRA = spectrum_cases()
FAR = 2


#: 1 - q on both sides of q = 1: inside the switch, at and just past it,
#: and well away from it
ONE_MINUS_Q = [s * d for d in (5e-13, 1e-12, 2e-12, 1e-6, 0.05) for s in (1.0, -1.0)]


class TestQDistribution:
    @pytest.mark.parametrize("one_minus_q", ONE_MINUS_Q)
    @pytest.mark.parametrize("case", range(4))
    def test_matches_50_digit_reference(self, case, one_minus_q):
        levels, degs = SPECTRA[case]
        q = 1.0 - one_minus_q
        # inside the domain: (1-q)*beta*E stays below 1/2
        beta = min(1.0, 0.5 / abs(one_minus_q * max(levels, key=abs)))
        dist, log_z = q_distribution(make_spectrum(levels, degs), QParams(q, beta))
        with mp.workdps(DPS):
            branch_q = 1.0 if abs(1.0 - q) < SWITCH else q
            log_w = ref_q_log_weights(levels, degs, branch_q, beta)
            rtol = q_rtol(levels, branch_q, beta, log_w)
            ref_log_z, ref = ref_normalize(log_w)
            assert_probs_close(dist.probs, ref, rtol)
            assert abs(log_z - ref_log_z) <= rtol * max(1.0, abs(float(ref_log_z)))
            if branch_q != q:
                # inside the switch the Boltzmann-Gibbs weights stand in for
                # the q-weights: their logs differ by about (1-q)*(beta*E)**2/2
                _, true = ref_normalize(ref_q_log_weights(levels, degs, q, beta))
                gap = abs(1.0 - q) * max(beta * abs(e) for e in levels) ** 2
                assert_probs_close(dist.probs, true, rtol + 2 * gap)

    @pytest.mark.parametrize("one_minus_q", [0.05, 0.3])
    def test_cut_off_levels_are_exact_zeros(self, one_minus_q):
        levels = np.linspace(0.0, 40.0, 41).tolist()
        q = 1.0 - one_minus_q
        dist, log_z = q_distribution(make_spectrum(levels, [1] * 41), QParams(q, 1.0))
        with mp.workdps(DPS):
            log_w = ref_q_log_weights(levels, [1] * 41, q, 1.0)
            assert any(a is None for a in log_w)
            rtol = q_rtol(levels, q, 1.0, log_w)
            ref_log_z, ref = ref_normalize(log_w)
            assert_probs_close(dist.probs, ref, rtol)
            assert abs(log_z - ref_log_z) <= rtol


def ext_cases():
    rng = np.random.default_rng(12)
    coeffs = [tuple((rng.uniform(-1.0, 1.0, order) / 4.0 ** np.arange(order)).tolist())
              for order in (1, 2, 3, 6, 12)]
    # large |exponent|: beta_3 * E**3 reaches 1e3 in magnitude on [-3, 3]
    coeffs += [(0.0, 0.0, 40.0), (-1.0,)]
    cases = [(case, c) for case in range(len(SPECTRA)) if case != FAR for c in coeffs]
    # exponents of +-1e4 on the far spectrum
    return cases + [(FAR, c) for c in [(1.0,), (-1.0,), (1.0, 1e-5)]]


class TestExtDistributionAndLogPartition:
    @pytest.mark.parametrize("case, coeffs", ext_cases())
    def test_matches_50_digit_reference(self, case, coeffs):
        levels, degs = SPECTRA[case]
        order = len(coeffs)
        spectrum = make_spectrum(levels, degs)
        m = MultiplierVector(coeffs)
        dist, log_z = ext_distribution(spectrum, m)
        with mp.workdps(DPS):
            # each term beta_n * E**n rounds at most twice, and their sum and
            # the max shift add a few roundings of the largest magnitude
            size = max(float(mp.fsum(abs(mp.mpf(c) * mp.mpf(e) ** n)
                                     for n, c in enumerate(coeffs, start=1)))
                       for e in levels)
            rtol = 8 * (order + 4) * EPS * (1.0 + size)
            ref_log_z, ref = ref_normalize(ref_ext_log_weights(levels, degs, coeffs))
            scale = max(1.0, abs(float(ref_log_z)))
            assert abs(log_z - ref_log_z) <= rtol * scale
            assert abs(log_partition(spectrum, m) - ref_log_z) <= rtol * scale
            assert_probs_close(dist.probs, ref, 2 * rtol)


class TestTsallisEntropy:
    @staticmethod
    def distributions():
        rng = np.random.default_rng(7)
        for n in (2, 6, 60):
            w = rng.uniform(0.01, 1.0, n)
            yield Distribution(w / w.sum())
        w = np.exp(-np.linspace(0.0, 600.0, 30))   # entries down to 1e-260
        yield Distribution(np.append(w / w.sum(), 0.0))

    @pytest.mark.parametrize("q", [1.0 - d for d in ONE_MINUS_Q] + [1.0, 0.5, 2.0])
    @pytest.mark.parametrize("case", range(4))
    def test_matches_50_digit_reference(self, case, q):
        dist = list(self.distributions())[case]
        s = tsallis_entropy(dist, q)
        with mp.workdps(DPS):
            inside = abs(q - 1.0) < SWITCH
            ref = ref_tsallis(dist.probs.tolist(), 1.0 if inside else q)
            # positive terms, each rounded a few times, in a pairwise sum
            rtol = 32 * EPS * (1.0 + math.log2(len(dist)))
            assert abs(s - ref) <= rtol * abs(ref)
            if inside:
                # S_q = S_1 - (q-1)/2 * sum P (log P)**2 + O((q-1)**2)
                true = ref_tsallis(dist.probs.tolist(), q)
                second = mp.fsum(p * mp.log(p) ** 2 for p in map(mp.mpf, dist.probs.tolist()) if p > 0)
                assert abs(s - true) <= rtol * abs(ref) + abs(q - 1.0) * second

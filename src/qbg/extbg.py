"""Moment-constrained exponential distributions P(E) = Z**-1 exp(-sum_n beta_n E**n).

The multiplier vector (beta_1, ..., beta_N) parameterizes the distribution;
the zeroth multiplier is fixed by normalization and appears only as log Z.
Multipliers can equivalently be expressed around a reference energy,
``sum_n bt_n (E - Eb)**n``; the two parameterizations are related by the
binomial change of basis implemented in :func:`center_multipliers` and
:func:`uncenter_multipliers`.  Those transforms are evaluated in exact
rational arithmetic (binomials stay integers), so the returned coefficients
are correctly rounded.

All exponent arithmetic runs in log space with a max shift, so no partition
sum overflows; but from ``|log Z|`` near 2**14 most probabilities
``exp(a - log Z)`` fail the sum check and raise ``ValueError`` (see README).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteExponent
from .params import (
    CenteredMultiplierVector,
    MomentVector,
    MultiplierVector,
    _require_finite,
    _require_order,
)
from .params import load_multipliers  # noqa: F401  (perfbench/spans.py traces it here)
from .spectrum import Distribution, EnergySpectrum, _power_matrix, _require_same_levels


def _spare_rows(order: int, size: int) -> np.ndarray:
    """The ``spare`` block :func:`_pairwise` needs for up to ``order``
    terms of ``size`` entries: three rows, and a fourth from 16 terms on."""
    return np.empty((3 if order < 16 else 4, size))


def _pairwise(column, n: int, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Write the sum of terms 1, ..., n, for n a multiple of 8 up to 128,
    into ``out`` in the order of numpy's ``pairwise_sum`` (which splits a
    longer row in two): 8 lanes, lane j adding terms j, j + 8, ..., joined
    as ((r1+r2)+(r3+r4))+((r5+r6)+(r7+r8)).  ``column(j, buf)`` writes term
    j into ``buf``.  The rows of ``spare``, shape (3, out.size), or (4,
    out.size) from 16 terms on (see :func:`_spare_rows`), are overwritten as
    scratch; the fourth holds a lane's later terms, and a lane has more than
    one only from 16 terms."""
    b1, b2, b3 = spare[:3]

    def lane(j, buf):
        column(j, buf)
        for k in range(j + 8, n + 1, 8):
            np.add(buf, column(k, spare[3]), out=buf)
        return buf

    np.add(lane(1, out), lane(2, b1), out=out)
    np.add(lane(3, b1), lane(4, b2), out=b1)
    np.add(out, b1, out=out)
    np.add(lane(5, b1), lane(6, b2), out=b1)
    np.add(lane(7, b2), lane(8, b3), out=b2)
    np.add(b1, b2, out=b1)
    return np.add(out, b1, out=out)


def _prefix_sums(column, count: int, scratch: np.ndarray, first: int):
    """Yield the sum of terms 1..N for N = first..count, equal bit for bit
    to ``np.add.reduce(M[:, :N], axis=1)`` of the C-ordered matrix M whose
    column n - 1 holds term n; ``column(n, buf)`` writes term n into
    ``buf``.  Every yield is the same array, overwritten by the next
    order's sum.  ``scratch``, the :func:`_spare_rows` of ``count`` terms
    (or a block with more rows), is the caller's: the sweep overwrites it
    inside each ``next()`` and leaves it alone between yields, so the
    caller may use it there.

    numpy reduces a row as ``0.0 + pairwise_sum(row)``, which adds left to
    right below 8 terms and changes its tree at each multiple of 8.  Between
    those points the sum for N is the sum for N - 1 plus term N (0.0 plus
    term 1 at N = 1), so the sweep starts at N = 1 or the last multiple of 8
    at or below ``first``, calls :func:`_pairwise` at multiples of 8 only,
    and costs one column per other order; adding the leading 0.0 at a
    multiple of 8, not last, can only change the sign of a zero sum, which
    the 0.0 clears either way.  It works in ``scratch`` and one sum buffer;
    ``count`` is at most MAX_ORDER, as :func:`_pairwise` requires.
    """
    acc = np.empty(scratch.shape[1])
    for n in range(max(1, first - first % 8), count + 1):
        if n % 8:
            np.add(acc if n > 1 else 0.0, column(n, scratch[0]), out=acc)
        else:
            np.add(0.0, _pairwise(column, n, acc, scratch), out=acc)
        if n >= first:
            yield acc


def _term_column(spectrum: EnergySpectrum, m: MultiplierVector):
    """``column(n, buf)``: writes the terms ``beta_n * E_i**n`` into ``buf``
    and returns it, from the spectrum's cached powers.  A zero beta_n gives
    exact +0.0 terms, also where E_i**n overflowed (``0.0 * inf`` is NaN);
    every sum then has the bits it would have with the terms ``0.0 * E_i**n``,
    as the leading 0.0 of the row reduction clears the sign of a zero."""
    powers = spectrum._powers(m.order)
    coeffs = [float(c) for c in m.coeffs]

    def column(n, buf):
        c = coeffs[n - 1]
        if c == 0.0:
            buf.fill(0.0)
            return buf
        return np.multiply(c, powers[n - 1], out=buf)

    return column


def _checked(s: np.ndarray, column, order: int) -> np.ndarray:
    """``s``, the sum of terms 1..order; raises :class:`NonFiniteExponent`
    if one of those terms is not finite.  A non-finite term makes every sum
    that holds it non-finite, so the terms are looked at only when ``s`` is
    not finite: finite terms may still overflow in the sum."""
    if not np.isfinite(s).all():
        term = np.empty_like(s)
        if not all(np.isfinite(column(n, term)).all() for n in range(1, order + 1)):
            raise NonFiniteExponent(
                "some beta_n * E**n is not finite; rescale the spectrum or multipliers"
            )
    return s


def _certified(scale: float, coeffs) -> bool:
    """Whether ``S = sum_n |beta_n| * scale**n`` over the nonzero beta_n,
    ``scale`` being ``max|E|``, is below 2**1000, so that no term
    ``beta_n * E_i**n`` and no sum of them can be non-finite.  An overflow
    while forming S means "not certified".  Every equivalence report at
    q != 1 is certified: there S < 3.6 / |1 - q| (the domain ratio r < 1
    gives S = sum_n r**n / n / |1 - q| over at most 20 orders)."""
    try:
        return sum(abs(c) * scale ** n for n, c in enumerate(coeffs, 1) if c) < 2.0 ** 1000
    except OverflowError:
        return False


def _sweep(spectrum: EnergySpectrum, m: MultiplierVector, first: int = 1):
    """Yield ``(log g - s, work)``, ``s_i = sum_{n<=N} beta_n * E_i**n``,
    for N = first..m.order, each ``s`` bit for bit what the first N
    multipliers give alone.  Both are rows of the sweep's scratch block,
    valid (and the caller's to overwrite) until the next order.  A term
    that overflows raises :class:`NonFiniteExponent` at the first yield
    whose sum holds it, without a warning first: only a sweep that
    :func:`_certified` cannot bound runs :func:`_checked` at each order."""
    column = _term_column(spectrum, m)
    scratch = _spare_rows(m.order, len(spectrum))
    log_g = spectrum._log_g()
    sums = _prefix_sums(column, m.order, scratch, first)
    certified = _certified(spectrum._max_abs(), m.coeffs)
    for order in range(first, m.order + 1):
        if certified:
            s = next(sums)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                s = _checked(next(sums), column, order)
        yield np.subtract(log_g, s, out=scratch[0]), scratch[1]


def _distributions(spectrum: EnergySpectrum, m: MultiplierVector, first: int = 1):
    """Yield ``(probs, log Z)`` of the order-N distribution
    ``P_i = g_i * exp(-s_i - log Z)`` for N = first..m.order, from
    :func:`_sweep`: ``probs`` is its ``work`` row, valid (and the caller's
    to overwrite) until the next order."""
    return (_normalize(a, work) for a, work in _sweep(spectrum, m, first))


def _logsumexp(a: np.ndarray, work: np.ndarray) -> float:
    """``log sum_i exp(a_i)`` of a 1-D float64 array with a finite maximum,
    bit for bit as ``scipy.special.logsumexp`` (1.17): the m entries tied at
    the maximum give ``log1p(s / m) + log(m) + max``, s the others' sum.
    ``work``, a float64 array shaped like ``a`` other than ``a``, is
    overwritten as scratch.  The tail runs on float64 scalars through the
    same ufuncs as scipy's one-element arrays."""
    a_max = a.max()
    ties = a == a_max
    m = np.float64(np.count_nonzero(ties))
    work = np.subtract(a, a_max, out=work)
    np.copyto(work, -np.inf, where=ties)
    s = np.exp(work, out=work).sum()
    if s != 0:
        s = s / m
    # np.log1p, not math.log1p: they differ in the last bit for some s
    return float(np.log1p(s) + np.log(m) + a_max)


def _normalize(a: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, float]:
    """Probabilities ``exp(a_i - log Z)`` and ``log Z = log sum_i exp(a_i)``
    from per-level log weights ``a`` (``-inf`` marks a zero weight).  The
    probabilities go into ``out``, a float64 array shaped like ``a``, other
    than ``a``."""
    log_z = _logsumexp(a, out)
    probs = np.subtract(a, log_z, out=out)
    return np.exp(probs, out=probs), log_z


def log_partition(spectrum: EnergySpectrum, m: MultiplierVector) -> float:
    """log of ``sum_i g_i * exp(-sum_n beta_n E_i**n)``, max-shift stable:
    the log Z of :func:`ext_distribution`, without forming probabilities."""
    return _logsumexp(*next(_sweep(spectrum, m, m.order)))


def ext_distribution(
    spectrum: EnergySpectrum, m: MultiplierVector
) -> tuple[Distribution, float]:
    """Distribution ``P_i = g_i * exp(-sum_n beta_n E_i**n - log Z)`` and log Z."""
    probs, log_z = next(_distributions(spectrum, m, m.order))
    return Distribution(probs), log_z


def bg_entropy(dist: Distribution) -> float:
    """Gibbs entropy -sum_i P_i log P_i with k = 1 and 0*log(0) = 0, over the
    level probabilities P_i: a level of degeneracy g_i counts once, where
    :func:`~qbg.qstat.escort_energy` splits P_i among its g_i states."""
    p = dist.probs[dist.probs > 0]
    return float(-(p * np.log(p)).sum())


def _scale_powers(scale: float, order: int, underflow: bool) -> np.ndarray:
    """``scale**n`` for n = 1..order, ``scale`` being ``max|E|``; raises
    :class:`NonFiniteExponent` naming the first n at which it overflows, or,
    with ``underflow``, underflows to 0."""
    with np.errstate(over="ignore"):
        powers = scale ** np.arange(1, order + 1)
    in_range = ((powers > 0) | (not underflow)) & (powers < math.inf)
    if not in_range[-1]:   # s**n moves away from 1 with n: the last power leaves first
        n = int(in_range.argmin()) + 1
        how = "overflows" if scale > 1 else "underflows to 0"
        raise NonFiniteExponent(f"max|E|**{n} = {scale!r}**{n} {how}; rescale the spectrum")
    return powers


def raw_moments(
    dist: Distribution, spectrum: EnergySpectrum, order: int
) -> MomentVector:
    """Raw moments mu_n = sum_i P_i * E_i**n for n = 1..order;
    :class:`NonFiniteExponent` if ``max|E|**n`` overflows for an n up to
    the order."""
    _require_same_levels(dist, spectrum)
    order = _require_order(order, cap=None)
    _scale_powers(spectrum._max_abs(), order, underflow=False)
    mu = dist.probs @ _power_matrix(spectrum, order)
    return MomentVector(tuple(mu))


def _binomial_shift(coeffs, x) -> list:
    """Exact coefficients, as ``Fraction``s, in powers of y, of
    ``sum_k c_k * (y + x)**k`` for ``coeffs`` = (c_1, ..., c_N): entry n is
    ``sum_{k>=n} C(k, n) * c_k * x**(k-n)``, for n = 0..N."""
    from fractions import Fraction

    c = [Fraction(0)] + [Fraction(v) for v in coeffs]
    x = Fraction(x)
    return [sum(math.comb(k, n) * c[k] * x ** (k - n) for k in range(n, len(c)))
            for n in range(len(c))]


def center_multipliers(m: MultiplierVector, center) -> CenteredMultiplierVector:
    """Re-express raw multipliers around a reference energy.

    ``bt_n = sum_{k>=n} C(k, n) * beta_k * center**(k-n)``; exact inverse of
    :func:`uncenter_multipliers` at the same center.
    """
    center = _require_finite("center", center)
    shifted = _binomial_shift(m.coeffs, center)
    return CenteredMultiplierVector(tuple(float(b) for b in shifted[1:]), float(center))


def uncenter_multipliers(
    c: CenteredMultiplierVector,
) -> tuple[MultiplierVector, float]:
    """Expand centered multipliers back to raw powers of E.

    Returns the raw vector ``beta_k = sum_{n>=k} C(n, k) * bt_n * (-Eb)**(n-k)``
    together with the power-zero term ``sum_n bt_n * (-Eb)**n``; that constant
    shift is absorbed by normalization, so the distribution built from the raw
    vector coincides with the centered form.
    """
    shifted = _binomial_shift(c.coeffs, -c.center)
    return MultiplierVector(tuple(float(b) for b in shifted[1:])), float(shifted[0])

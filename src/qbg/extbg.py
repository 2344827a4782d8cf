"""Moment-constrained exponential distributions P(E) = Z**-1 exp(-sum_n beta_n E**n).

The multiplier vector (beta_1, ..., beta_N) parameterizes the distribution;
the zeroth multiplier is fixed by normalization and appears only as log Z.
Multipliers can equivalently be expressed around a reference energy,
``sum_n bt_n (E - Eb)**n``; the two parameterizations are related by the
binomial change of basis implemented in :func:`center_multipliers` and
:func:`uncenter_multipliers`.  Those transforms are evaluated in exact
rational arithmetic (binomials stay integers), so the returned coefficients
are correctly rounded.

All exponent arithmetic runs in log space with a max shift, so spectra with
exponents up to ~1e4 in magnitude do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LengthMismatch, NonFiniteExponent, OrderTooLarge, ParseError
from .spectrum import Distribution, EnergySpectrum, _field, _pairs

#: Largest supported multiplier order: a multiplier vector with more entries
#: raises :class:`OrderTooLarge` when it is built.
MAX_ORDER = 20


def _require_order(n: int):
    if n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds the cap of {MAX_ORDER}")


def _as_number(x):
    # normalize numpy scalars to float; keep exact types (int, Fraction) as-is
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    return x


def _finite_tuple(values, what: str, convert=_as_number) -> tuple:
    """``values`` converted to a tuple of at least one finite number."""
    values = tuple(convert(v) for v in values)
    if not values:
        raise ValueError(f"at least one {what} is required")
    for v in values:
        if not math.isfinite(float(v)):
            raise ValueError(f"{what}s must be finite, got {v!r}")
    return values


@dataclass(frozen=True)
class MultiplierVector:
    """Multipliers (beta_1, ..., beta_N), beta_n in units of energy**-n,
    N <= MAX_ORDER."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = _finite_tuple(self.coeffs, "multiplier")
        _require_order(len(coeffs))
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)


def _require_finite_center(center):
    if not math.isfinite(float(center)):
        raise ValueError(f"center must be finite, got {center!r}")


@dataclass(frozen=True)
class CenteredMultiplierVector:
    """Multipliers for powers of (E - center), at most MAX_ORDER of them."""

    coeffs: tuple
    center: float

    def __post_init__(self):
        coeffs = _finite_tuple(self.coeffs, "multiplier")
        _require_order(len(coeffs))
        _require_finite_center(self.center)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "center", _as_number(self.center))

    @property
    def order(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class MomentVector:
    """Raw moments (mu_1, ..., mu_N), mu_n = <E**n> in units of energy**n."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _finite_tuple(self.values, "moment", float))

    @property
    def order(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ClaytonParams:
    """Inverse temperature beta and the small quadratic correction delta of
    the modified Boltzmann factor exp(-beta*E - delta*(beta*E)**2)."""

    beta: float
    delta: float

    def __post_init__(self):
        if not float(self.beta) > 0 or not math.isfinite(float(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not math.isfinite(float(self.delta)):
            raise ValueError(f"delta must be finite, got {self.delta!r}")


def _power_matrix(spectrum: EnergySpectrum, order: int) -> np.ndarray:
    """``E_i**n`` for n = 1..order, shape (levels, order): a C-contiguous
    copy of the first ``order`` rows of the spectrum's power cache.

    Matrix products take this copy: the same product on the transposed
    rows, or on a column slice of a wider matrix, differs in the last bit.
    """
    return np.ascontiguousarray(spectrum._powers(order)[:order].T)


def _pairwise(column, n: int, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Write the sum of terms 1, ..., n into ``out``, in the order of numpy's
    ``pairwise_sum`` for n <= 128 (numpy splits a longer row in two; no row
    here is longer than MAX_ORDER): left to right below 8 terms; else 8
    lanes (lane j adds terms j, j + 8, ... of the whole blocks of 8) joined
    as ((r1+r2)+(r3+r4))+((r5+r6)+(r7+r8)), then the rest left to right.

    ``column(j, buf)`` writes term j into ``buf``.  The four rows of
    ``spare``, an array of shape (4, out.size), are overwritten as scratch.

    numpy starts the short loop from 0.0, which can only turn a -0.0 into
    0.0; callers add the row reduction's leading 0.0, which does the same."""
    scratch, b1, b2, b3 = spare
    if n < 8:
        column(1, out)
        for j in range(2, n + 1):
            np.add(out, column(j, scratch), out=out)
        return out
    blocks = n - n % 8

    def lane(j, buf):
        column(j, buf)
        for k in range(j + 8, blocks + 1, 8):
            np.add(buf, column(k, scratch), out=buf)
        return buf

    np.add(lane(1, out), lane(2, b1), out=out)
    np.add(lane(3, b1), lane(4, b2), out=b1)
    np.add(out, b1, out=out)
    np.add(lane(5, b1), lane(6, b2), out=b1)
    np.add(lane(7, b2), lane(8, b3), out=b2)
    np.add(b1, b2, out=b1)
    np.add(out, b1, out=out)
    for j in range(blocks + 1, n + 1):
        np.add(out, column(j, scratch), out=out)
    return out


def _prefix_sums(column, count: int, scratch: np.ndarray):
    """Yield the sum of terms 1..N for N = 1..count, equal bit for bit to
    ``np.add.reduce(M[:, :N], axis=1)`` of the C-ordered matrix M whose
    column n - 1 holds term n; ``column(n, buf)`` writes term n into
    ``buf``.  Every yield is the same array, overwritten by the next
    order's sum.  ``scratch``, shape (4, size), is the caller's: the sweep
    overwrites it inside each ``next()`` and leaves it alone between
    yields, so the caller may use it there.

    numpy reduces a row as ``0.0 + pairwise_sum(row)``.  Between the points
    where the pairwise tree changes shape (N = 1 and every multiple of 8)
    that is the sum for N - 1 plus term N, so a sweep costs one column per
    order and works in ``scratch`` and one sum buffer.  ``count`` is at most
    MAX_ORDER, as :func:`_pairwise` requires.
    """
    acc = np.empty(scratch.shape[1])
    for n in range(1, count + 1):
        if n == 1 or n % 8 == 0:
            _pairwise(column, n, acc, scratch)
            np.add(0.0, acc, out=acc)
        else:
            np.add(acc, column(n, scratch[0]), out=acc)
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


def _truncated_exponents(spectrum: EnergySpectrum, m: MultiplierVector, scratch: np.ndarray):
    """Yield the order-N exponents ``s_i = sum_{n<=N} beta_n * E_i**n`` for
    N = 1..m.order, each bit for bit the :func:`_exponents` of the first N
    multipliers.  Every yield is the same array, overwritten by the next
    order; ``scratch``, shape (4, levels), is used as in :func:`_prefix_sums`.

    Consume it under ``np.errstate(over="ignore", invalid="ignore")``, as
    :func:`_exponents` runs: a term that overflows then raises
    :class:`NonFiniteExponent` without a warning first."""
    column = _term_column(spectrum, m)
    sums = _prefix_sums(column, m.order, scratch)
    for order, s in enumerate(sums, start=1):
        yield _checked(s, column, order)


def _exponents(spectrum: EnergySpectrum, m: MultiplierVector) -> np.ndarray:
    """Per-level exponents s_i = sum_n beta_n * E_i**n, summed as numpy sums
    each row of the term matrix ``beta_n * E_i**n``."""
    column = _term_column(spectrum, m)
    s = np.empty(len(spectrum))
    with np.errstate(over="ignore", invalid="ignore"):
        _pairwise(column, m.order, s, np.empty((4, s.size)))
        return _checked(np.add(0.0, s, out=s), column, m.order)


def _logsumexp(a: np.ndarray, work: np.ndarray | None = None) -> float:
    """``log sum_i exp(a_i)`` of a 1-D float64 array with a finite maximum,
    bit for bit as ``scipy.special.logsumexp`` (1.17): the m entries tied at
    the maximum give ``log1p(s / m) + log(m) + max``, s the others' sum.
    ``work``, a float64 array shaped like ``a`` other than ``a``, is
    overwritten as scratch; without it one is allocated."""
    a_max = a.max(keepdims=True)
    ties = a == a_max
    m = np.array([np.count_nonzero(ties)], dtype=np.float64)
    work = np.subtract(a, a_max, out=work)
    np.copyto(work, -np.inf, where=ties)
    s = np.exp(work, out=work).sum(keepdims=True)
    if s[0] != 0:
        s = s / m
    # np.log1p, not math.log1p: they differ in the last bit for some s
    return float((np.log1p(s) + np.log(m) + a_max)[0])


def _normalize(a: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Probabilities ``exp(a_i - log Z)`` and ``log Z = log sum_i exp(a_i)``
    from per-level log weights ``a`` (``-inf`` marks a zero weight).  The
    probabilities go into ``out`` if given (a float64 array shaped like
    ``a``, other than ``a``), else into a new array."""
    log_z = _logsumexp(a, out)
    probs = np.subtract(a, log_z, out=out)
    return np.exp(probs, out=probs), log_z


def log_partition(spectrum: EnergySpectrum, m: MultiplierVector) -> float:
    """log of ``sum_i g_i * exp(-sum_n beta_n E_i**n)``, max-shift stable."""
    return _logsumexp(spectrum._log_g() - _exponents(spectrum, m))


def ext_distribution(
    spectrum: EnergySpectrum, m: MultiplierVector
) -> tuple[Distribution, float]:
    """Distribution ``P_i = g_i * exp(-sum_n beta_n E_i**n - log Z)`` and log Z."""
    probs, log_z = _normalize(spectrum._log_g() - _exponents(spectrum, m))
    return Distribution(probs), log_z


def bg_entropy(dist: Distribution) -> float:
    """Gibbs entropy -sum_i P_i log P_i with k = 1 and 0*log(0) = 0."""
    p = dist.probs[dist.probs > 0]
    return float(-(p * np.log(p)).sum())


def raw_moments(
    dist: Distribution, spectrum: EnergySpectrum, order: int
) -> MomentVector:
    """Raw moments mu_n = sum_i P_i * E_i**n for n = 1..order."""
    if len(dist) != len(spectrum):
        raise LengthMismatch(f"{len(spectrum)} levels but {len(dist)} probabilities")
    if order < 1:
        raise ValueError("order must be >= 1")
    mu = dist.probs @ _power_matrix(spectrum, order)
    return MomentVector(tuple(mu))


def central_moments(
    dist: Distribution, spectrum: EnergySpectrum, order: int
) -> MomentVector:
    """Central moments <(E - mu_1)**n> for n = 1..order; the first entry is
    exactly 0 (it is analytically forced)."""
    if len(dist) != len(spectrum):
        raise LengthMismatch(f"{len(spectrum)} levels but {len(dist)} probabilities")
    if order < 1:
        raise ValueError("order must be >= 1")
    p = dist.probs
    e = spectrum.levels
    mean = float(p @ e)
    d = e - mean
    values = [float(p @ d ** n) for n in range(1, order + 1)]
    values[0] = 0.0
    return MomentVector(tuple(values))


def center_multipliers(m: MultiplierVector, center) -> CenteredMultiplierVector:
    """Re-express raw multipliers around a reference energy.

    ``bt_n = sum_{k>=n} C(k, n) * beta_k * center**(k-n)``; exact inverse of
    :func:`uncenter_multipliers` at the same center.
    """
    _require_finite_center(center)
    n_max = m.order
    coeffs = [Fraction(c) for c in m.coeffs]
    cc = Fraction(center)
    out = []
    for n in range(1, n_max + 1):
        acc = sum(
            math.comb(k, n) * coeffs[k - 1] * cc ** (k - n)
            for k in range(n, n_max + 1)
        )
        out.append(float(acc))
    return CenteredMultiplierVector(tuple(out), float(center))


def uncenter_multipliers(
    c: CenteredMultiplierVector,
) -> tuple[MultiplierVector, float]:
    """Expand centered multipliers back to raw powers of E.

    Returns the raw vector ``beta_k = sum_{n>=k} C(n, k) * bt_n * (-Eb)**(n-k)``
    together with the power-zero term ``sum_n bt_n * (-Eb)**n``; that constant
    shift is absorbed by normalization, so the distribution built from the raw
    vector coincides with the centered form.
    """
    n_max = c.order
    coeffs = [Fraction(x) for x in c.coeffs]
    neg_center = -Fraction(c.center)
    out = []
    for k in range(1, n_max + 1):
        acc = sum(
            math.comb(n, k) * coeffs[n - 1] * neg_center ** (n - k)
            for n in range(k, n_max + 1)
        )
        out.append(float(acc))
    shift = float(sum(coeffs[n - 1] * neg_center ** n for n in range(1, n_max + 1)))
    return MultiplierVector(tuple(out)), shift


def clayton_multipliers(p: ClaytonParams) -> MultiplierVector:
    """Order-2 multipliers (beta, delta*beta**2) of the quadratic-corrected
    Boltzmann factor exp(-beta*E - delta*(beta*E)**2)."""
    return MultiplierVector((p.beta, p.delta * p.beta ** 2))


def load_multipliers(path) -> MultiplierVector:
    """Read a multiplier file: one ``n,beta_n`` pair per line, n ascending
    from 1.  Lines starting with ``#`` and blank lines are ignored."""
    coeffs: list[float] = []
    for lineno, left, right in _pairs(path, "n,beta_n"):
        n = _field(path, lineno, left, int, "order")
        if n != len(coeffs) + 1:
            raise ParseError(
                path, lineno, f"orders must ascend from 1, got {n} after {len(coeffs)}"
            )
        coeffs.append(_field(path, lineno, right, float, "multiplier"))
    if not coeffs:
        raise ParseError(path, 0, "no multipliers found")
    return MultiplierVector(tuple(coeffs))

"""Finite discrete energy spectra and the distributions on them.

A spectrum is a strictly increasing array of energy levels E_i with positive
integer degeneracies g_i.  Probabilities are stored per level with the
degeneracy already folded in, so ``P_i`` is the total probability of level i.

``EnergySpectrum.levels`` is a float64 array, ``EnergySpectrum.degeneracies``
an int64 array and ``Distribution.probs`` a float64 array.  Each is a private,
read-only copy made at construction (writing into one raises ``ValueError``),
by one rule, :func:`_frozen_vector`: strings (numeric ones too) and complex
values raise ``TypeError``, and a degeneracy must be an int64 integer.
Two spectra, or two distributions, are equal when their arrays are
(``np.array_equal``); neither has a hash.

A spectrum also holds two private, read-only caches, each filled on first
use: ``log g_i``, and the powers ``E_i**n`` for n = 2..k, one contiguous
row per power (shape (k - 1, levels)), widened when a higher order is
asked for; E**1 is ``levels`` itself.  They cost 8 * levels * k bytes for
the widest order k used on that spectrum.  Their values follow from the
spectrum alone, so they never go stale; threads that fill one at once may
each compute it, and every caller gets at least the powers it asked for.
With both warm, ``equivalence_report`` holds five level-sized arrays at
its peak below order 16.  Every operation is a pure function, safe for
concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EmptySpectrum,
    LengthMismatch,
    NonPositiveDegeneracy,
    NonPositiveScale,
    UnsortedLevels,
)
from .params import _field, _pairs, _Record

#: Tolerance on |sum(P) - 1| accepted by Distribution.
NORMALIZATION_TOL = 1e-12


def _frozen_vector(values, dtype, what: str) -> np.ndarray:
    """A read-only 1-D copy of ``values`` as ``dtype``, its own dtype read
    once (``np.array(values)``): a kind other than bool, integer, float or
    object (strings and complex values) raises ``TypeError``.  As int64,
    a value that is not an integer, or does not fit in int64, raises
    :class:`NonPositiveDegeneracy`.  Converting takes no second copy
    where ``values`` already has ``dtype``."""
    a = np.array(values)
    if a.dtype.kind not in "biufO":
        raise TypeError(f"{what} must be real numbers, got dtype {a.dtype}")
    if dtype is np.int64 and a.dtype.kind not in "biu":
        a = a.astype(np.float64, copy=False)
        bad = ~(np.abs(a) < 2.0**63) | (a != np.trunc(a))
        if bad.any():
            raise NonPositiveDegeneracy(f"degeneracy {float(a[bad][0])!r} is not an int64 integer")
    if a.ndim != 1:
        raise ValueError(f"{what} must be a one-dimensional sequence")
    a = a.astype(dtype, copy=False)
    a.flags.writeable = False
    return a


class EnergySpectrum(_Record):
    """Energy levels (strictly increasing, finite) with degeneracies >= 1."""

    __match_args__ = ("levels", "degeneracies")
    __hash__ = None

    def __init__(self, levels, degeneracies):
        self.__post_init__(levels, degeneracies)

    def __post_init__(self, levels, degeneracies):
        # checks and copies under this name: perfbench/spans.py traces them
        levels = _frozen_vector(levels, np.float64, "levels")
        if levels.size == 0:
            raise EmptySpectrum("spectrum has no levels")
        if not np.isfinite(levels).all():
            raise ValueError("levels must be finite")
        if not (levels[1:] > levels[:-1]).all():
            raise UnsortedLevels("levels must be strictly increasing")
        degs = _frozen_vector(degeneracies, np.int64, "degeneracies")
        if degs.size != levels.size:
            raise LengthMismatch(f"{levels.size} levels but {degs.size} degeneracies")
        if not (degs >= 1).all():
            raise NonPositiveDegeneracy("every degeneracy must be >= 1")
        self.__dict__.update(levels=levels, degeneracies=degs, _power_cache=None,
                             _log_g_cache=None)

    def _log_g(self) -> np.ndarray:
        """Read-only ``np.log(degeneracies)``; cached."""
        if self._log_g_cache is None:
            log_g = np.log(self.degeneracies)
            log_g.flags.writeable = False
            self.__dict__["_log_g_cache"] = log_g
        return self._log_g_cache

    def _max_abs(self) -> float:
        """``max|E|``, which sits at an end level: the levels are sorted."""
        return max(abs(float(self.levels[0])), abs(float(self.levels[-1])))

    def _power_block(self, order: int) -> np.ndarray:
        """Read-only ``levels ** n`` in row n - 2, for n = 2..k with
        k >= ``order``, shape (k - 1, levels) and C-ordered, so each power
        is one contiguous row; cached, widest order kept.  E**1 is not
        stored: it is ``levels`` itself, as pow(x, 1) == x."""
        block = self._power_cache
        if block is None or block.shape[0] < order - 1:
            levels = self.levels
            block = np.empty((order - 1, levels.size))
            exponent = np.empty(levels.size)
            with np.errstate(over="ignore"):
                for n, row in enumerate(block, start=2):
                    # an exponent array, not the scalar n: numpy squares a
                    # scalar exponent 2, which differs from pow in the last bit
                    exponent.fill(n)
                    np.power(levels, exponent, out=row)
            block.flags.writeable = False
            self.__dict__["_power_cache"] = block
        return block

    def _powers(self, order: int) -> tuple:
        """Read-only ``levels ** n`` in item n - 1, for n = 1..k with
        k >= ``order``: ``levels``, then the rows of :meth:`_power_block`."""
        return (self.levels, *self._power_block(order))

    def __len__(self) -> int:
        return len(self.levels)


class Distribution(_Record):
    """Per-level probabilities; degeneracy is folded into each entry."""

    __match_args__ = ("probs",)
    __hash__ = None

    def __init__(self, probs):
        self.__post_init__(probs)

    def __post_init__(self, probs):
        probs = _frozen_vector(probs, np.float64, "probabilities")
        if probs.size == 0:
            raise ValueError("distribution has no entries")
        if not (np.isfinite(probs) & (probs >= 0)).all():
            raise ValueError("probabilities must be finite and >= 0")
        # pairwise summation: error ~ log2(n) * eps, far below the tolerance
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.__dict__["probs"] = probs

    def __len__(self) -> int:
        return len(self.probs)


def _require_same_levels(dist: Distribution, spectrum: EnergySpectrum):
    """:class:`LengthMismatch` unless ``dist`` has one probability per level."""
    if len(dist) != len(spectrum):
        raise LengthMismatch(f"{len(spectrum)} levels but {len(dist)} probabilities")


def _power_matrix(spectrum: EnergySpectrum, order: int) -> np.ndarray:
    """``E_i**n`` for n = 1..order, shape (levels, order): a C-contiguous
    copy of the first ``order`` powers of the spectrum's power cache.

    Matrix products take this copy: the same product on the transposed
    rows, or on a column slice of a wider matrix, differs in the last bit.
    The block goes in as one transposed copy; ``np.stack`` of the rows
    copies one strided column at a time, 4x slower at 1e5 levels.
    """
    matrix = np.empty((len(spectrum), order))
    matrix[:, 0] = spectrum.levels
    matrix[:, 1:] = spectrum._power_block(order)[:order - 1].T
    return matrix


def make_spectrum(levels, degeneracies) -> EnergySpectrum:
    """Validate and build a spectrum from level energies and degeneracies
    (sequences or arrays)."""
    return EnergySpectrum(levels, degeneracies)


def rescale(spectrum: EnergySpectrum, scale: float) -> EnergySpectrum:
    """Divide every level by ``scale`` (> 0, finite), taken as given: a
    string raises ``TypeError``.  Degeneracies are unchanged.  A level that
    overflows raises ``ValueError``, with no warning first."""
    if not math.isfinite(scale) or not scale > 0:
        raise NonPositiveScale(f"scale must be positive and finite, got {float(scale)!r}")
    with np.errstate(over="ignore"):   # EnergySpectrum refuses a level that overflows
        return EnergySpectrum(spectrum.levels / scale, spectrum.degeneracies)


def load_spectrum(path) -> EnergySpectrum:
    """Read a spectrum file: one ``energy,degeneracy`` pair per line.

    Lines starting with ``#`` and blank lines are ignored.  Energies are
    decimal literals, degeneracies positive integers.
    """
    levels: list[float] = []
    degs: list[int] = []
    for lineno, left, right in _pairs(path, "energy,degeneracy"):
        levels.append(_field(path, lineno, left, float, "energy"))
        degs.append(_field(path, lineno, right, int, "degeneracy"))
    return make_spectrum(levels, degs)

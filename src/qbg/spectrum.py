"""Finite discrete energy spectra and the distributions on them.

A spectrum is a strictly increasing array of energy levels E_i with positive
integer degeneracies g_i.  Probabilities are stored per level with the
degeneracy already folded in, so ``P_i`` is the total probability of level i.

``EnergySpectrum.levels`` is a float64 array, ``EnergySpectrum.degeneracies``
an int64 array and ``Distribution.probs`` a float64 array.  Each is a private,
read-only copy made at construction (writing into one raises ``ValueError``).

A spectrum also holds two private, read-only caches, each filled on first
use: ``log g_i``, and the power matrix ``E_i**n``, n = 1..k, one contiguous
row per power (shape (k, levels)), widened when a higher order is asked
for.  They cost 8 * levels * (k + 1) bytes for the widest order k used on
that spectrum.  Their values follow from the spectrum alone, so they never
go stale; threads that fill one at once may each compute it, and every
caller gets at least the rows it asked for.  With both warm,
``equivalence_report`` holds six level-sized arrays at its peak.  Every
operation is a pure function, safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySpectrum,
    LengthMismatch,
    NonPositiveDegeneracy,
    NonPositiveScale,
    ParseError,
    UnsortedLevels,
)

#: Tolerance on |sum(P) - 1| accepted by Distribution.
NORMALIZATION_TOL = 1e-12


def _frozen_vector(values, dtype, what: str) -> np.ndarray:
    """A read-only 1-D copy of ``values`` as ``dtype``."""
    a = np.array(values, dtype=dtype)
    if a.ndim != 1:
        raise ValueError(f"{what} must be a one-dimensional sequence")
    a.flags.writeable = False
    return a


def _integer_degeneracies(values) -> np.ndarray:
    """``values`` as an integer array; a value that is not an integer, or
    does not fit in int64, raises :class:`NonPositiveDegeneracy`."""
    degs = np.asarray(values)
    if degs.dtype.kind in "biu":
        return degs
    as_float = degs.astype(np.float64)
    bad = ~(np.abs(as_float) < 2.0**63) | (as_float != np.trunc(as_float))
    if bad.any():
        raise NonPositiveDegeneracy(
            f"degeneracy {float(as_float[bad][0])!r} is not an int64 integer"
        )
    return as_float


@dataclass(frozen=True, eq=False)
class EnergySpectrum:
    """Energy levels (strictly increasing, finite) with degeneracies >= 1."""

    levels: np.ndarray
    degeneracies: np.ndarray

    def __post_init__(self):
        levels = _frozen_vector(self.levels, np.float64, "levels")
        if levels.size == 0:
            raise EmptySpectrum("spectrum has no levels")
        if not np.isfinite(levels).all():
            raise ValueError("levels must be finite")
        if not (levels[1:] > levels[:-1]).all():
            raise UnsortedLevels("levels must be strictly increasing")
        degs = _frozen_vector(
            _integer_degeneracies(self.degeneracies), np.int64, "degeneracies"
        )
        if degs.size != levels.size:
            raise LengthMismatch(
                f"{levels.size} levels but {degs.size} degeneracies"
            )
        if not (degs >= 1).all():
            raise NonPositiveDegeneracy("every degeneracy must be >= 1")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "degeneracies", degs)
        object.__setattr__(self, "_power_cache", None)
        object.__setattr__(self, "_log_g_cache", None)

    def _log_g(self) -> np.ndarray:
        """Read-only ``np.log(degeneracies)``; cached."""
        if self._log_g_cache is None:
            log_g = np.log(self.degeneracies)
            log_g.flags.writeable = False
            object.__setattr__(self, "_log_g_cache", log_g)
        return self._log_g_cache

    def _powers(self, order: int) -> np.ndarray:
        """Read-only ``levels ** n`` in row n - 1, for n = 1..k with
        k >= ``order``, shape (k, levels) and C-ordered, so each power is one
        contiguous row; cached, widest order kept."""
        powers = self._power_cache
        if powers is None or powers.shape[0] < order:
            levels = self.levels
            powers = np.empty((order, levels.size))
            exponent = np.empty(levels.size)
            with np.errstate(over="ignore"):
                for n, row in enumerate(powers, start=1):
                    # an exponent array, not the scalar n: numpy squares a
                    # scalar exponent 2, which differs from pow in the last bit
                    exponent.fill(n)
                    np.power(levels, exponent, out=row)
            powers.flags.writeable = False
            object.__setattr__(self, "_power_cache", powers)
        return powers

    def __eq__(self, other):
        if not isinstance(other, EnergySpectrum):
            return NotImplemented
        return np.array_equal(self.levels, other.levels) and np.array_equal(
            self.degeneracies, other.degeneracies
        )

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Per-level probabilities; degeneracy is folded into each entry."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen_vector(self.probs, np.float64, "probabilities")
        if probs.size == 0:
            raise ValueError("distribution has no entries")
        if not (np.isfinite(probs) & (probs >= 0)).all():
            raise ValueError("probabilities must be finite and >= 0")
        # pairwise summation: error ~ log2(n) * eps, far below the tolerance
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", probs)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __len__(self) -> int:
        return len(self.probs)


def make_spectrum(levels, degeneracies) -> EnergySpectrum:
    """Validate and build a spectrum from level energies and degeneracies
    (sequences or arrays)."""
    return EnergySpectrum(levels, degeneracies)


def rescale(spectrum: EnergySpectrum, scale: float) -> EnergySpectrum:
    """Divide every level by ``scale`` (> 0); degeneracies are unchanged."""
    scale = float(scale)
    if not scale > 0 or not math.isfinite(scale):
        raise NonPositiveScale(f"scale must be positive and finite, got {scale!r}")
    return EnergySpectrum(spectrum.levels / scale, spectrum.degeneracies)


def _pairs(path, form: str):
    """``(lineno, left, right)`` for each ``left,right`` line of a file,
    skipping blank lines and ``#`` comments."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(path, lineno, f"expected {form!r}, got {line!r}")
            yield lineno, parts[0], parts[1]


def _field(path, lineno: int, text: str, convert, what: str):
    """``convert(text)``, where ``convert`` is ``int`` or ``float``; a float
    must be finite."""
    try:
        value = convert(text)
    except ValueError:
        raise ParseError(path, lineno, f"bad {what} {text!r}") from None
    if convert is float and not math.isfinite(value):
        raise ParseError(path, lineno, f"{what} {text!r} is not finite")
    return value


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

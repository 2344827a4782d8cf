"""Parameters of the two families and the closed-form mapping between them.

The q-exponential side is parameterized by :class:`QParams` (q, beta), the
moment-constrained exponential side by a :class:`MultiplierVector`
(beta_1, ..., beta_N).  Expanding ``log([1-(1-q)*beta*E]**(1/(1-q)))`` as a
series in E identifies them through

    beta_n = (1-q)**(n-1) * beta**n / n,

exact term by term inside the domain ``max_i |(1-q)*beta*E_i| < 1`` where the
logarithm series converges.  The quadratic special case truncates at n = 2 and
matches the delta-corrected Boltzmann factor with q = 1 - 2*delta.

The mappings use plain Python arithmetic, so exact numeric types (e.g.
``fractions.Fraction``) pass through unchanged; this lets the closed-form
identities be checked with zero tolerance.

``qbg map``, ``invert-map`` and ``clayton`` run on this module alone, so it
imports nothing beyond ``math``, ``sys`` and :mod:`qbg.errors`: no numpy,
and no ``dataclasses`` (which loads ``inspect``) or ``fractions`` at module
level.  Every qbg record, the five here and those of the numeric modules, is
a plain class on :class:`_Record`, which behaves as ``@dataclass(frozen=True)``
would, comparing an array field by ``np.array_equal``; ``Fraction`` is
imported inside the two functions that need it.  One rule,
:func:`_require_finite`, reads every number a record takes: one that is not
a real number (a numeric string or a bool too) raises ``TypeError``, a
non-finite one ``ValueError``, and a numpy scalar is kept as a float.  One
rule, :func:`_require_order`, reads every count (an order, the solver's
iteration budget): a bool or a non-integer raises ``ValueError``, and a
numpy integer is kept as an ``int``.
"""

from __future__ import annotations

import math
import sys

from .errors import OrderTooLarge, ParseError, ZeroLeadingMultiplier

#: Largest supported multiplier order: a multiplier vector with more entries
#: raises :class:`OrderTooLarge` when it is built.
MAX_ORDER = 20

#: Predicted coefficients smaller than this are compared absolutely
#: (tolerance 1e-12) instead of relatively in the inverse mapping.
_ABS_FALLBACK_FLOOR = 1e-300
_ABS_FALLBACK_TOL = 1e-12


def _require_order(n, name: str = "order", cap=MAX_ORDER) -> int:
    """``n`` as an ``int``: ``ValueError`` naming ``name`` if it is a bool,
    not an integer (a float such as 2.0 too) or below 1, and
    :class:`OrderTooLarge` above ``cap`` (no cap with None).  A numpy
    integer passes: it has ``__index__``, as ``int`` has."""
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1")
    if cap is not None and n > cap:
        raise OrderTooLarge(f"order {n} exceeds the cap of {cap}")
    return n.__index__()


def _require_finite(name: str, value):
    """``value`` as a record holds it: a numpy scalar as a float, an exact
    type (int, ``Fraction``) as it is.  ``TypeError`` if it is not a real
    number (a numeric string or a bool too), ``ValueError`` naming ``name``
    if it is not finite.  numpy is not imported: a numpy scalar needs it
    loaded."""
    np = sys.modules.get("numpy")
    if isinstance(value, (bool, np.bool_) if np else bool):
        raise TypeError("must be real number, not bool")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value) if np and isinstance(value, (np.floating, np.integer)) else value


def _finite_tuple(values, what: str) -> tuple:
    """``values`` as a tuple of at least one finite number, each by :func:`_require_finite`."""
    values = tuple(_require_finite(f"{what}s", v) for v in values)
    if not values:
        raise ValueError(f"at least one {what} is required")
    return values


class _Record:
    """An immutable record, as ``@dataclass(frozen=True)`` would make it.

    A subclass names its fields, in order, in ``__match_args__`` and sets
    them once, in ``__init__``, through ``self.__dict__``.  Equality and hash
    go by class and field values, an array field by ``np.array_equal`` (a
    record with one sets ``__hash__ = None``); ``repr`` reads
    ``Name(field=value, ...)``; assigning or deleting any attribute raises
    ``AttributeError``; ``copy`` and ``pickle`` restore ``__dict__`` directly."""

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        np = sys.modules.get("numpy")   # loaded wherever an array field exists
        return all(a is b or (np.array_equal(a, b) if np and isinstance(a, np.ndarray) else a == b)
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class QParams(_Record):
    """Entropic index q and inverse temperature beta (beta = 0 is the
    infinite-temperature limit and gives the uniform distribution).  The
    deformation ``(1-q)*beta`` must be finite too: every weight is formed
    from it.  A numpy scalar is stored as a float."""

    __match_args__ = ("q", "beta")

    def __init__(self, q: float, beta: float):
        q = _require_finite("q", q)
        if not math.isfinite(beta) or beta < 0:
            raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
        beta = _require_finite("beta", beta)
        if not math.isfinite((1.0 - q) * beta):
            raise ValueError(f"(1-q)*beta must be finite, got q={q!r}, beta={beta!r}")
        self.__dict__.update(q=q, beta=beta)


class MultiplierVector(_Record):
    """Multipliers (beta_1, ..., beta_N), beta_n in units of energy**-n,
    N <= MAX_ORDER."""

    __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        coeffs = _finite_tuple(coeffs, "multiplier")
        _require_order(len(coeffs))
        self.__dict__.update(coeffs=coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)


class CenteredMultiplierVector(_Record):
    """Multipliers for powers of (E - center), at most MAX_ORDER of them."""

    __match_args__ = ("coeffs", "center")

    def __init__(self, coeffs: tuple, center: float):
        coeffs = _finite_tuple(coeffs, "multiplier")
        _require_order(len(coeffs))
        self.__dict__.update(coeffs=coeffs, center=_require_finite("center", center))

    @property
    def order(self) -> int:
        return len(self.coeffs)


class MomentVector(_Record):
    """Raw moments (mu_1, ..., mu_N), mu_n = <E**n> in units of energy**n."""

    __match_args__ = ("values",)

    def __init__(self, values: tuple[float, ...]):
        self.__dict__.update(values=tuple(map(float, _finite_tuple(values, "moment"))))

    @property
    def order(self) -> int:
        return len(self.values)


class ClaytonParams(_Record):
    """Inverse temperature beta and the small quadratic correction delta of
    the modified Boltzmann factor exp(-beta*E - delta*(beta*E)**2)."""

    __match_args__ = ("beta", "delta")

    def __init__(self, beta: float, delta: float):
        if not math.isfinite(beta) or not beta > 0:
            raise ValueError(f"beta must be positive and finite, got {beta!r}")
        self.__dict__.update(beta=_require_finite("beta", beta),
                             delta=_require_finite("delta", delta))


def _in_range(formula, args: tuple, what: str):
    """``formula(*args)`` where it is finite.  Where a power or product on
    the way overflows, the value is formed again from the ``Fraction`` of each
    argument, exactly, and rounded once; one that is out of the float range
    itself raises ``ValueError`` naming ``what``."""
    try:
        value = formula(*args)
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    from fractions import Fraction

    try:
        return float(formula(*map(Fraction, args)))
    except OverflowError:
        raise ValueError(f"multiplier {what} overflows") from None


def _mapped(one_minus_q, beta, n: int):
    """beta_n = (1-q)**(n-1) * beta**n / n; ``ValueError`` naming n if it overflows.

    At q = 1 exactly, beta_n for n >= 2 is an exact zero of the formula's
    type, whatever beta**n would be; a (1-q)**(n-1) that merely underflows
    still goes through the exact fallback of :func:`_in_range`."""
    if one_minus_q == 0 and n >= 2:
        return one_minus_q * beta / n
    return _in_range(lambda a, b: a ** (n - 1) * b ** n / n, (one_minus_q, beta),
                     f"beta_{n} = (1-q)**{n - 1} * beta**{n} / {n}")


def q_to_multipliers(params: QParams, order: int) -> MultiplierVector:
    """Multipliers beta_n = (1-q)**(n-1) * beta**n / n for n = 1..order.

    At q = 1 this is (beta, 0, ..., 0) for any beta: the series terminates.
    A beta_n out of the float range raises ``ValueError``.
    """
    order = _require_order(order)
    one_minus_q = 1 - params.q
    return MultiplierVector(
        tuple(_mapped(one_minus_q, params.beta, n) for n in range(1, order + 1))
    )


def _matched_q(coeffs: tuple, tol: float):
    """``q = 1 - 2*beta_2/beta_1**2`` (1.0 at order 1) if every beta_n from
    n = 2 on matches the mapping from (q, beta_1), else None.  A predicted
    beta_n out of the float range raises ``ValueError``; a ``beta_1**2`` or
    ``2*beta_2`` that overflows to inf raises ``OverflowError``."""
    beta = coeffs[0]
    q = 1.0
    if len(coeffs) >= 2:
        square, twice = beta * beta, 2 * coeffs[1]
        if math.inf in (square, abs(twice)):
            raise OverflowError("beta_1**2 or 2*beta_2 overflows")
        q = 1 - twice / square
    one_minus_q = 1 - q
    for n in range(2, len(coeffs) + 1):
        predicted = _mapped(one_minus_q, beta, n)
        limit = _ABS_FALLBACK_TOL if abs(predicted) < _ABS_FALLBACK_FLOOR else tol * abs(predicted)
        if abs(coeffs[n - 1] - predicted) > limit:
            return None
    return q


def multipliers_to_q(m: MultiplierVector, tol: float):
    """Invert the mapping: recover (q, beta) from a multiplier vector.

    The candidate is ``beta = beta_1`` and ``q = 1 - 2*beta_2/beta_1**2``
    (q = 1 when the order is 1 or beta_2 = 0).  It is returned only if every
    remaining beta_n matches ``(1-q)**(n-1) * beta**n / n`` within ``tol``
    relative (absolute 1e-12 for predicted values below 1e-300) and
    :class:`QParams` accepts it; otherwise None.  Where floats under- or
    overflow on the way, the check is redone in exact rational arithmetic.
    A negative beta_1 also yields None, since a nonnegative inverse
    temperature cannot reproduce it, and so does a negative ``tol``.  A NaN
    ``tol`` raises ``ValueError``: every comparison with it is false, so it
    would accept any vector.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    b1 = m.coeffs[0]
    if b1 == 0:
        raise ZeroLeadingMultiplier("the first multiplier must be nonzero")
    if b1 < 0 or tol < 0:
        return None
    try:
        q = _matched_q(m.coeffs, tol)
        return None if q is None else QParams(q, b1)
    except (ArithmeticError, ValueError):
        pass
    from fractions import Fraction

    try:
        q = _matched_q(tuple(map(Fraction, m.coeffs)), tol)
        return None if q is None else QParams(float(q), b1)
    except (OverflowError, ValueError):
        return None


def clayton_multipliers(p: ClaytonParams) -> MultiplierVector:
    """Order-2 multipliers (beta, delta*beta**2) of the quadratic-corrected
    Boltzmann factor exp(-beta*E - delta*(beta*E)**2).

    At delta = 0, beta_2 is an exact zero of the formula's type for any beta,
    as :func:`q_to_multipliers` gives at q = 1.  A beta_2 out of the float
    range raises ``ValueError``."""
    if p.delta == 0:
        return MultiplierVector((p.beta, p.delta * p.beta))
    beta_2 = _in_range(lambda d, b: d * b ** 2, (p.delta, p.beta), "beta_2 = delta * beta**2")
    return MultiplierVector((p.beta, beta_2))


def clayton_to_q(delta):
    """q = 1 - 2*delta: the deformation index matching the quadratic
    Boltzmann-factor correction.  A q out of the float range raises
    ``ValueError``."""
    q = 1 - 2 * _require_finite("delta", delta)
    if not math.isfinite(q):
        raise ValueError(f"q = 1 - 2*delta overflows, got delta={delta!r}")
    return q


def _pairs(path, form: str):
    """``(lineno, left, right)`` for each ``left,right`` line of a file,
    skipping blank lines, ``#`` comments and a first other line that reads
    ``form``: the column names of a report, so a report can be read back."""
    header = form
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            is_header, header = line == header, None
            if is_header:
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

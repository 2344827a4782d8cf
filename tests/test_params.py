"""qbg's records behave as frozen dataclasses do.

The five records of :mod:`qbg.params` (``QParams``, ``MultiplierVector``,
``CenteredMultiplierVector``, ``MomentVector`` and ``ClaytonParams``),
``SolverReport`` and ``EquivalenceReport`` are pinned here on what
``@dataclass(frozen=True)`` gives a caller: construction by position and by
keyword with the same checks, no assignment or deletion, equality and hash
by class and fields, the ``repr`` text, copies and pickles.
"""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from qbg.equivalence import EquivalenceReport, equivalence_report
from qbg.errors import OrderTooLarge, OutsideConvergenceDomain
from qbg.extbg import center_multipliers, raw_moments
from qbg.maxent import SolverOptions, SolverReport
from qbg.params import (
    MAX_ORDER,
    CenteredMultiplierVector,
    ClaytonParams,
    MomentVector,
    MultiplierVector,
    QParams,
    clayton_multipliers,
    clayton_to_q,
    q_to_multipliers,
)
from qbg.spectrum import Distribution, make_spectrum, rescale

#: (class, positional arguments, keyword arguments, fields after construction,
#: exact repr)
RECORDS = [
    (QParams, (0.98, 1.0), {"q": 0.98, "beta": 1.0}, {"q": 0.98, "beta": 1.0},
     "QParams(q=0.98, beta=1.0)"),
    (MultiplierVector, ([1.0, 0.01, 2],), {"coeffs": [1.0, 0.01, 2]},
     {"coeffs": (1.0, 0.01, 2)}, "MultiplierVector(coeffs=(1.0, 0.01, 2))"),
    (CenteredMultiplierVector, ((1.0, -0.5), 2), {"coeffs": (1.0, -0.5), "center": 2},
     {"coeffs": (1.0, -0.5), "center": 2},
     "CenteredMultiplierVector(coeffs=(1.0, -0.5), center=2)"),
    (MomentVector, ([1, 2.5],), {"values": [1, 2.5]}, {"values": (1.0, 2.5)},
     "MomentVector(values=(1.0, 2.5))"),
    (ClaytonParams, (1, 0.01), {"beta": 1, "delta": 0.01}, {"beta": 1, "delta": 0.01},
     "ClaytonParams(beta=1, delta=0.01)"),
    (SolverReport, (True, 3, 1e-12, 1.0, 2.5),
     {"converged": True, "iterations": 3, "residual_norm": 1e-12, "final_step_size": 1.0,
      "rescale_factor": 2.5},
     {"converged": True, "iterations": 3, "residual_norm": 1e-12, "final_step_size": 1.0,
      "rescale_factor": 2.5},
     "SolverReport(converged=True, iterations=3, residual_norm=1e-12, final_step_size=1.0, "
     "rescale_factor=2.5)"),
    (EquivalenceReport, ((1, 2), (0.1, 0.01), 0.5),
     {"orders": (1, 2), "sup_distances": (0.1, 0.01), "domain_ratio": 0.5},
     {"orders": (1, 2), "sup_distances": (0.1, 0.01), "domain_ratio": 0.5},
     "EquivalenceReport(orders=(1, 2), sup_distances=(0.1, 0.01), domain_ratio=0.5)"),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, fields, text", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs, fields,
                                                       text):
        by_position, by_keyword = cls(*args), cls(**kwargs)
        for name, value in fields.items():
            for record in (by_position, by_keyword):
                assert getattr(record, name) == value
                assert type(getattr(record, name)) is type(value)
        assert by_position == by_keyword

    def test_mixed_construction(self, cls, args, kwargs, fields, text):
        _, *rest = kwargs
        assert cls(args[0], **{name: kwargs[name] for name in rest}) == cls(*args)

    def test_wrong_arguments_are_type_errors(self, cls, args, kwargs, fields, text):
        with pytest.raises(TypeError):
            cls(*args, *args)
        with pytest.raises(TypeError):
            cls(**kwargs, extra=1)
        with pytest.raises(TypeError):
            cls()

    def test_fields_in_order(self, cls, args, kwargs, fields, text):
        assert cls.__match_args__ == tuple(fields)

    def test_assignment_and_deletion_raise(self, cls, args, kwargs, fields, text):
        record = cls(*args)
        for name, value in fields.items():
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, value)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
            assert getattr(record, name) == value
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            record.extra = 1
        assert not hasattr(record, "extra")

    def test_equal_values_equal_and_hash_alike(self, cls, args, kwargs, fields, text):
        a, b = cls(*args), cls(**kwargs)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert len({a, b}) == 1

    def test_different_class_never_equal(self, cls, args, kwargs, fields, text):
        record = cls(*args)
        assert record != tuple(fields.values())
        assert record.__eq__(tuple(fields.values())) is NotImplemented
        for other_cls, other_args, *_ in RECORDS:
            if other_cls is not cls:
                assert record != other_cls(*other_args)

    def test_no_ordering(self, cls, args, kwargs, fields, text):
        with pytest.raises(TypeError):
            cls(*args) < cls(*args)

    def test_repr(self, cls, args, kwargs, fields, text):
        assert repr(cls(*args)) == text
        assert str(cls(*args)) == text

    def test_copies_and_pickles_round_trip(self, cls, args, kwargs, fields, text):
        record = cls(*args)
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for duplicate in copies:
            assert type(duplicate) is cls
            assert duplicate == record and hash(duplicate) == hash(record)
            assert repr(duplicate) == text
            with pytest.raises(AttributeError):
                setattr(duplicate, next(iter(fields)), None)


class TestUnequalValues:
    @pytest.mark.parametrize("a, b", [
        (QParams(0.98, 1.0), QParams(0.98, 2.0)),
        (QParams(0.98, 1.0), QParams(1.0, 1.0)),
        (MultiplierVector((1.0, 0.01)), MultiplierVector((1.0,))),
        (MultiplierVector((1.0, 0.01)), MultiplierVector((1.0, 0.02))),
        (CenteredMultiplierVector((1.0,), 0.0), CenteredMultiplierVector((1.0,), 1.0)),
        (MomentVector((1.0, 2.0)), MomentVector((1.0, 3.0))),
        (ClaytonParams(1.0, 0.01), ClaytonParams(1.0, 0.02)),
    ])
    def test_unequal(self, a, b):
        assert a != b and not a == b

    def test_same_fields_different_class(self):
        # both hash as the tuple (1.0, 0.5), yet they are not equal
        q, c = QParams(1.0, 0.5), ClaytonParams(1.0, 0.5)
        assert hash(q) == hash(c) and q != c
        assert len({q, c}) == 2
        assert MultiplierVector((1.0,)) != MomentVector((1.0,))

    def test_int_and_float_fields_compare_as_numbers(self):
        assert QParams(1, 2) == QParams(1.0, 2.0)
        assert hash(QParams(1, 2)) == hash(QParams(1.0, 2.0))


class TestValidation:
    @pytest.mark.parametrize("args, message", [
        ((math.inf, 1.0), "q must be finite, got inf"),
        ((math.nan, 1.0), "q must be finite, got nan"),
        ((0.5, -1.0), "beta must be finite and >= 0, got -1.0"),
        ((0.5, math.inf), "beta must be finite and >= 0, got inf"),
        ((-1e300, 1e10), "(1-q)*beta must be finite, got q=-1e+300, beta=10000000000.0"),
    ])
    def test_qparams(self, args, message):
        for build_record in (lambda: QParams(*args), lambda: QParams(q=args[0], beta=args[1])):
            with pytest.raises(ValueError) as info:
                build_record()
            assert str(info.value) == message

    @pytest.mark.parametrize("cls", [MultiplierVector, CenteredMultiplierVector])
    def test_multiplier_vectors(self, cls):
        extra = (0.0,) if cls is CenteredMultiplierVector else ()
        with pytest.raises(ValueError, match="at least one multiplier is required"):
            cls((), *extra)
        with pytest.raises(ValueError, match="multipliers must be finite, got nan"):
            cls((1.0, math.nan), *extra)
        with pytest.raises(OrderTooLarge):
            cls((1.0,) * (MAX_ORDER + 1), *extra)
        assert cls((1.0,) * MAX_ORDER, *extra).order == MAX_ORDER

    def test_center_must_be_finite(self):
        with pytest.raises(ValueError, match="center must be finite, got inf"):
            CenteredMultiplierVector((1.0,), math.inf)
        with pytest.raises(ValueError, match="center must be finite"):
            CenteredMultiplierVector(coeffs=(1.0,), center=math.nan)

    def test_moment_vector(self):
        with pytest.raises(ValueError, match="at least one moment is required"):
            MomentVector(values=[])
        with pytest.raises(ValueError, match="moments must be finite, got inf"):
            MomentVector([1.0, math.inf])
        assert MomentVector([1, 2, 3]).order == 3

    @pytest.mark.parametrize("args, message", [
        ((0.0, 0.01), "beta must be positive and finite, got 0.0"),
        ((-1.0, 0.01), "beta must be positive and finite, got -1.0"),
        ((math.inf, 0.01), "beta must be positive and finite, got inf"),
        ((math.nan, 0.01), "beta must be positive and finite, got nan"),
        ((1.0, math.inf), "delta must be finite, got inf"),
        ((1.0, math.nan), "delta must be finite, got nan"),
    ])
    def test_clayton_params(self, args, message):
        for build_record in (lambda: ClaytonParams(*args),
                             lambda: ClaytonParams(beta=args[0], delta=args[1])):
            with pytest.raises(ValueError) as info:
                build_record()
            assert str(info.value) == message

    def test_order_property(self):
        assert MultiplierVector((1.0, 2.0)).order == 2
        assert CenteredMultiplierVector((1.0, 2.0, 3.0), 0.5).order == 3


class TestNumberRule:
    """Every number a record takes is refused unless it is a real number,
    and a numpy scalar is stored as a float, so no numpy arithmetic (or
    warning) follows from it."""

    @pytest.mark.parametrize("build", [
        lambda: QParams("0.98", 1.0),
        lambda: QParams(0.98, "1"),
        lambda: MultiplierVector((1.0, "2")),
        lambda: CenteredMultiplierVector(("1",), 0.5),
        lambda: CenteredMultiplierVector((1.0,), "0.5"),
        lambda: MomentVector((1.0, "2")),
        lambda: ClaytonParams("1", 0.5),
        lambda: ClaytonParams(1.0, "0.5"),
        lambda: clayton_to_q("0.5"),
        lambda: center_multipliers(MultiplierVector((1.0,)), "0.5"),
        lambda: SolverOptions("1e-9"),
        lambda: rescale(make_spectrum([0, 1], [1, 1]), "2"),
    ], ids=["q", "beta", "multiplier", "centered-multiplier", "center", "moment",
            "clayton-beta", "delta", "clayton_to_q", "center_multipliers", "tol", "rescale"])
    def test_string_refused(self, build):
        with pytest.raises(TypeError, match="^must be real number, not str$"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: QParams(True, 1.0),
        lambda: QParams(0.5, True),
        lambda: MultiplierVector((True,)),
        lambda: ClaytonParams(1.0, np.True_),
        lambda: SolverOptions(True),
    ], ids=["q", "beta", "multiplier", "numpy-bool-delta", "tol"])
    def test_bool_refused(self, build):
        # bool is an int subclass: True would be stored, or computed with, as 1
        with pytest.raises(TypeError, match="^must be real number, not bool$"):
            build()

    @pytest.mark.parametrize("numpy_built, float_built", [
        (lambda: QParams(np.float64(0.5), np.int64(2)), lambda: QParams(0.5, 2.0)),
        (lambda: MultiplierVector((np.float64(1.0), np.float32(0.5))),
         lambda: MultiplierVector((1.0, 0.5))),
        (lambda: CenteredMultiplierVector((np.float64(1.0),), np.int32(3)),
         lambda: CenteredMultiplierVector((1.0,), 3.0)),
        (lambda: MomentVector((np.float64(1.5), np.int64(3))), lambda: MomentVector((1.5, 3.0))),
        (lambda: ClaytonParams(np.float64(2.0), np.float64(0.01)),
         lambda: ClaytonParams(2.0, 0.01)),
    ], ids=["QParams", "MultiplierVector", "CenteredMultiplierVector", "MomentVector",
            "ClaytonParams"])
    def test_numpy_scalars_stored_as_floats(self, numpy_built, float_built):
        record, plain = numpy_built(), float_built()
        assert record == plain and repr(record) == repr(plain)
        numbers = [v for field in record._values()
                   for v in (field if isinstance(field, tuple) else (field,))]
        assert all(type(v) is float for v in numbers)

    @pytest.mark.parametrize("call, error", [
        (lambda: q_to_multipliers(QParams(np.float64(0.5), np.float64(1e200)), 2), ValueError),
        (lambda: clayton_multipliers(ClaytonParams(np.float64(1e200), np.float64(0.01))),
         ValueError),
        (lambda: equivalence_report(make_spectrum([0, 1e300], [1, 1]),
                                    QParams(np.float64(0.5), np.float64(1e10)), 2),
         OutsideConvergenceDomain),
    ], ids=["q_to_multipliers", "clayton_multipliers", "equivalence_report"])
    def test_numpy_scalar_overflow_raises_its_error_without_a_warning(self, call, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                call()


class TestCountRule:
    """Every order, and the solver's iteration budget, is an integer read
    by one rule: a bool or a float, an integral one too, is refused with a
    ``ValueError`` naming it, and a numpy integer is taken as an ``int``."""

    @pytest.mark.parametrize("call, message", [
        (lambda: q_to_multipliers(QParams(0.5, 1.0), True), "order must be an integer, got True"),
        (lambda: q_to_multipliers(QParams(0.5, 1.0), 2.0), "order must be an integer, got 2.0"),
        (lambda: equivalence_report(make_spectrum([0, 1], [1, 1]), QParams(0.9, 0.5),
                                    max_order=2.0),
         "max_order must be an integer, got 2.0"),
        (lambda: raw_moments(Distribution([0.5, 0.5]), make_spectrum([0, 1], [1, 1]), 2.0),
         "order must be an integer, got 2.0"),
        (lambda: SolverOptions(max_iter=2.5), "max_iter must be an integer, got 2.5"),
    ], ids=["bool-order", "float-order", "max_order", "raw_moments", "max_iter"])
    def test_non_integer_refused(self, call, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            call()

    def test_numpy_integer_taken_as_int(self):
        params = QParams(0.5, 1.0)
        assert q_to_multipliers(params, np.int64(3)) == q_to_multipliers(params, 3)
        assert type(SolverOptions(max_iter=np.int32(4)).max_iter) is int

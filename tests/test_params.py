"""The five records of :mod:`qbg.params` behave as frozen dataclasses do.

``QParams``, ``MultiplierVector``, ``CenteredMultiplierVector``,
``MomentVector`` and ``ClaytonParams`` are pinned here on what
``@dataclass(frozen=True)`` gives a caller: construction by position and by
keyword with the same checks, no assignment or deletion, equality and hash
by class and fields, the ``repr`` text, copies and pickles.
"""

import copy
import math
import pickle

import pytest

from qbg.errors import OrderTooLarge
from qbg.params import (
    MAX_ORDER,
    CenteredMultiplierVector,
    ClaytonParams,
    MomentVector,
    MultiplierVector,
    QParams,
)

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

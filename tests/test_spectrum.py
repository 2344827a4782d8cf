import copy
import math
import pickle
import re
import sys
import threading
from collections.abc import Hashable
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from qbg import (
    Distribution,
    MomentVector,
    MultiplierVector,
    QParams,
    dual_hessian,
    equivalence_report,
    ext_distribution,
    load_multipliers,
    make_spectrum,
    raw_moments,
    rescale,
)
from qbg.errors import (
    EmptySpectrum,
    LengthMismatch,
    NonPositiveDegeneracy,
    NonPositiveScale,
    ParseError,
    UnsortedLevels,
)
from qbg.spectrum import load_spectrum

from conftest import spectra


def bits(a):
    """The float64 bit patterns of ``a``, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestMakeSpectrum:
    def test_minimal_two_level(self):
        s = make_spectrum([0, 1], [1, 1])
        assert tuple(s.levels) == (0.0, 1.0)
        assert tuple(s.degeneracies) == (1, 1)

    def test_degenerate_middle_level(self):
        s = make_spectrum([0, 1, 2], [1, 2, 1])
        assert int(s.degeneracies.sum()) == 4

    def test_unsorted_levels_rejected(self):
        with pytest.raises(UnsortedLevels):
            make_spectrum([1, 0], [1, 1])

    def test_equal_levels_rejected(self):
        with pytest.raises(UnsortedLevels):
            make_spectrum([0, 0], [1, 1])

    def test_empty_rejected(self):
        with pytest.raises(EmptySpectrum):
            make_spectrum([], [])

    def test_zero_degeneracy_rejected(self):
        with pytest.raises(NonPositiveDegeneracy):
            make_spectrum([0], [0])

    def test_fractional_degeneracy_rejected(self):
        with pytest.raises(NonPositiveDegeneracy):
            make_spectrum([0], [1.5])

    def test_degeneracy_beyond_int64_rejected(self):
        with pytest.raises(NonPositiveDegeneracy):
            make_spectrum([0], [2**70])

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            make_spectrum([0, 1], [1])

    def test_nonfinite_level_rejected(self):
        with pytest.raises(ValueError):
            make_spectrum([0, math.inf], [1, 1])

    def test_negative_levels_allowed(self):
        s = make_spectrum([-2.5, 0.5], [1, 3])
        assert tuple(s.levels) == (-2.5, 0.5)

    def test_two_dimensional_levels_rejected(self):
        with pytest.raises(ValueError, match=r"^levels must be a one-dimensional sequence$"):
            make_spectrum([[0.0, 1.0]], [1, 1])

    def test_integral_float_degeneracies_become_int64(self):
        s = make_spectrum([0.0, 1.0], [1.0, 2.0])
        assert s.degeneracies.dtype == np.int64
        assert s.degeneracies.tolist() == [1, 2]
        assert s == make_spectrum([0.0, 1.0], [1, 2])


class TestArrayRule:
    """An array's own dtype is read once: strings, numeric ones too, and
    complex values are refused before any conversion, with no warning."""

    @pytest.mark.parametrize("build, message", [
        (lambda: make_spectrum(["0", "1e0"], ["1", "2"]),
         "levels must be real numbers, got dtype <U3"),
        (lambda: make_spectrum([0.0, 1.0], ["1", "2"]),
         "degeneracies must be real numbers, got dtype <U1"),
        (lambda: Distribution(["0.5", "0.5"]),
         "probabilities must be real numbers, got dtype <U3"),
        (lambda: Distribution(np.array([0.5 + 3j, 0.5])),
         "probabilities must be real numbers, got dtype complex128"),
        # a string among exact numbers makes an object array
        (lambda: make_spectrum([Fraction(0), "1"], [1, 1]),
         "levels must be real numbers, got '1'"),
        (lambda: make_spectrum([0.0, 1.0], [Fraction(1), b"2"]),
         "degeneracies must be real numbers, got b'2'"),
        (lambda: Distribution([Fraction(1, 2), "0.5"]),
         "probabilities must be real numbers, got '0.5'"),
    ], ids=["string-levels", "string-degeneracies", "string-probabilities",
            "complex-probabilities", "object-string-levels", "object-bytes-degeneracies",
            "object-string-probabilities"])
    def test_refused(self, build, message):
        with pytest.raises(TypeError, match=rf"^{re.escape(message)}$"):
            build()

    def test_exact_and_boolean_inputs_convert(self):
        s = make_spectrum([Fraction(1, 3), 1], [True, 2**62])
        assert s.levels.tolist() == [1 / 3, 1.0]
        assert s.degeneracies.tolist() == [1, 2**62]
        assert Distribution([Fraction(1, 4), Fraction(3, 4)]).probs.tolist() == [0.25, 0.75]


class TestRescale:
    def test_direct_division(self):
        assert tuple(rescale(make_spectrum([0, 10], [1, 1]), 10).levels) == (0.0, 1.0)

    def test_identity(self):
        s = make_spectrum([0, 1], [1, 1])
        assert rescale(s, 1.0) == s

    def test_three_levels(self):
        assert tuple(rescale(make_spectrum([0, 2, 4], [1, 1, 1]), 2).levels) == (0.0, 1.0, 2.0)

    def test_nonpositive_scale_rejected(self):
        s = make_spectrum([0, 1], [1, 1])
        for bad in (0.0, -1.0):
            with pytest.raises(NonPositiveScale):
                rescale(s, bad)

    def test_overflowing_levels_refused_without_a_warning(self):
        s = make_spectrum([0.0, 1e200], [1, 1])
        with pytest.raises(ValueError, match=r"^levels must be finite$"):
            rescale(s, 1e-200)

    @given(spectra(min_levels=2))
    def test_roundtrip(self, s):
        back = rescale(rescale(s, 3.0), 1 / 3.0)
        for a, b in zip(back.levels, s.levels):
            assert a == pytest.approx(b, rel=1e-15, abs=1e-300)


class TestDistribution:
    def test_valid(self):
        d = Distribution((0.25, 0.75))
        assert len(d) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Distribution((-0.1, 1.1))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            Distribution((0.4, 0.4))

    def test_tiny_normalization_slack_accepted(self):
        Distribution((0.5, 0.5 + 1e-13))

    def test_zero_entries_allowed(self):
        Distribution((1.0, 0.0, 0.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"^distribution has no entries$"):
            Distribution([])


class TestEquality:
    """Spectra and distributions are equal when their class and their arrays
    are, as every qbg record is by its fields; neither has a hash."""

    def test_equal_exactly_within_a_group(self):
        groups = [
            [make_spectrum([0.0, 1.0], [1, 2]), make_spectrum([0, 1], [1.0, 2.0]),
             make_spectrum([-0.0, 1.0], np.array([1, 2]))],
            [make_spectrum([0.0, 1.0], [1, 3])],
            [make_spectrum([0.0, 1.0, 2.0], [1, 2, 1])],
            [Distribution([0.25, 0.75]), Distribution(np.array([0.25, 0.75]))],
            [Distribution([0.0, 1.0]), Distribution([-0.0, 1.0])],
            [Distribution([1.0])],
            [MomentVector((0.0, 1.0))],
            [MultiplierVector((0.0, 1.0))],
            [QParams(0.0, 1.0), QParams(0, 1)],
        ]
        records = [(i, record) for i, group in enumerate(groups) for record in group]
        for i, a in records:
            for j, b in records:
                assert (a == b) is (i == j)
                assert (a != b) is (i != j)

    def test_other_types_are_not_equal(self):
        s, d = make_spectrum([0.0, 1.0], [1, 1]), Distribution([0.5, 0.5])
        for record in (s, d):
            assert record != object() and not record == object()
            assert record.__eq__(object()) is NotImplemented
        assert d != s and not d == s
        assert s.__eq__(d) is NotImplemented and d.__eq__(s) is NotImplemented

    def test_unhashable(self):
        for record in (make_spectrum([0.0, 1.0], [1, 1]), Distribution([0.5, 0.5])):
            with pytest.raises(TypeError, match=rf"^unhashable type: '{type(record).__name__}'$"):
                hash(record)
            assert not isinstance(record, Hashable)

    def test_copies_and_pickles_are_equal(self):
        for record in (make_spectrum([0.0, 1.0], [1, 2]), Distribution([0.25, 0.75])):
            for duplicate in (copy.copy(record), copy.deepcopy(record),
                              pickle.loads(pickle.dumps(record))):
                assert type(duplicate) is type(record)
                assert duplicate == record and repr(duplicate) == repr(record)


class TestReadOnlyArrays:
    def test_arrays_have_fixed_dtypes(self):
        s = make_spectrum([0, 1], [1, 2])
        assert s.levels.dtype == np.float64
        assert s.degeneracies.dtype == np.int64
        assert Distribution((0.25, 0.75)).probs.dtype == np.float64

    def test_writing_into_levels_raises(self):
        s = make_spectrum([0, 1], [1, 1])
        with pytest.raises(ValueError):
            s.levels[0] = 5.0
        with pytest.raises(ValueError):
            s.degeneracies[0] = 5
        assert tuple(s.levels) == (0.0, 1.0)

    def test_writing_into_probs_raises(self):
        d = Distribution((0.25, 0.75))
        with pytest.raises(ValueError):
            d.probs[0] = 0.75
        assert tuple(d.probs) == (0.25, 0.75)

    def test_input_array_is_copied(self):
        levels = np.array([0.0, 1.0])
        s = make_spectrum(levels, [1, 1])
        levels[0] = -1.0
        assert tuple(s.levels) == (0.0, 1.0)


class TestPowerCache:
    @staticmethod
    def broadcast(levels, order):
        """``levels ** n`` for n = 1..order, one row per power."""
        return np.ascontiguousarray((levels[:, None] ** np.arange(1, order + 1)[None, :]).T)

    def test_read_only_and_equal_to_broadcast_pow(self):
        s = make_spectrum([-1.5, -0.1, 0.0, 0.3, 2.0, 7.25], [1, 2, 1, 1, 3, 1])
        powers = s._powers(5)
        assert len(powers) == 5
        # E**1 is the levels array itself; E**2..E**5 are rows of one block
        assert powers[0] is s.levels
        block = s._power_block(5)
        assert block.shape == (4, 6) and block.flags.c_contiguous
        assert not block.flags.writeable
        expected = self.broadcast(s.levels, 5)
        for n, row in enumerate(powers, start=1):
            assert not row.flags.writeable and row.flags.c_contiguous
            with pytest.raises(ValueError):
                row[0] = 1.0
            assert row.tobytes() == expected[n - 1].tobytes()
            if n >= 2:
                assert row.base is block

    def test_pow_to_the_first_is_the_identity(self):
        # serving E**1 from the levels relies on pow(x, 1) == x, bit for bit
        tiny = np.finfo(np.float64).smallest_subnormal
        big = np.finfo(np.float64).max
        edges = np.array([0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1e-300, 1.0,
                          -1.0, 1 - 2 ** -53, 1 + 2 ** -52, 1e300, -1e300, big, -big])
        rng = np.random.default_rng(1)
        spread = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-320, 308, 200_000)
        for x in (edges, spread, rng.uniform(-8.0, 8.0, 200_000)):
            assert np.array_equal(bits(np.power(x, np.ones(x.size))), bits(x))

    def test_rows_equal_pow_where_a_scalar_exponent_squares(self):
        # numpy computes x ** 2 for a scalar exponent 2 as x * x, which
        # differs from pow(x, 2.0) in the last bit on some inputs; a row-major
        # cache built as levels[None, :] ** n[:, None] would hit that path
        levels = np.unique(np.random.default_rng(2).uniform(-3.0, 8.0, 10_000))
        s = make_spectrum(levels, np.ones(levels.size, dtype=np.int64))
        expected = self.broadcast(levels, 12)
        squared = levels[None, :] ** np.arange(1, 13)[:, None]
        assert not np.array_equal(squared[1], expected[1])
        powers = s._powers(12)
        assert powers[0] is s.levels
        assert np.stack(powers[1:]).tobytes() == expected[1:].tobytes()

    def test_second_call_returns_the_same_array(self):
        s = make_spectrum([0.0, 0.5, 2.0], [1, 1, 1])
        block = s._power_block(4)
        assert s._power_block(4) is block
        assert s._power_block(2) is block
        assert all(row.base is block for row in s._powers(3)[1:])

    def test_wider_order_rebuilds_with_equal_columns(self):
        s = make_spectrum(np.linspace(-3.0, 3.0, 50), [1] * 50)
        narrow = s._powers(3)
        wide = s._powers(20)
        assert len(wide) == 20
        assert s._power_block(20).shape == (19, 50)
        assert s._power_block(7) is s._power_block(20)
        assert np.stack(wide[:3]).tobytes() == np.stack(narrow).tobytes()
        assert np.stack(wide).tobytes() == self.broadcast(s.levels, 20).tobytes()

    def test_eq_and_repr_unchanged(self):
        s = make_spectrum([0.0, 1.0, 2.5], [1, 2, 1])
        fresh = make_spectrum([0.0, 1.0, 2.5], [1, 2, 1])
        before = repr(s)
        s._powers(12)
        assert repr(s) == before == repr(fresh)
        assert s == fresh and fresh == s
        assert s != make_spectrum([0.0, 1.0, 2.5], [1, 1, 1])
        assert s.__match_args__ == ("levels", "degeneracies")

    def test_concurrent_fills_return_full_correct_arrays(self):
        # threads race to fill and widen the same caches; each call must
        # still get at least the columns it asked for, with correct values
        spectra_ = [make_spectrum(np.linspace(-1.0, 1.0, 300) + k, [1] * 300)
                    for k in range(40)]
        expected = [self.broadcast(sp.levels, 20) for sp in spectra_]
        failures = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(3):
                    for sp, full in zip(spectra_, expected):
                        order = int(rng.integers(1, 21))
                        powers = sp._powers(order)
                        width = len(powers)
                        if width < order or not np.array_equal(np.stack(powers), full[:width]):
                            failures.append((order, width))
            except Exception as exc:  # a worker's exception would only warn
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_results_after_filling_order_20_equal_a_fresh_spectrum(self):
        # matrix products on a column slice of the wider cache differ in the
        # last bit from products on a contiguous matrix
        rng = np.random.default_rng(20)
        for _ in range(12):
            levels = np.unique(rng.uniform(-1.0, 1.0, int(rng.integers(40, 400))))
            degs = rng.integers(1, 5, levels.size)
            filled = make_spectrum(levels, degs)
            filled._powers(20)

            def fresh():
                return make_spectrum(levels, degs)

            for order in (3, 12):
                m = MultiplierVector(tuple(rng.uniform(-1.0, 1.0, order)))
                dist, _ = ext_distribution(fresh(), m)
                assert raw_moments(dist, filled, order) == raw_moments(dist, fresh(), order)
                assert (dual_hessian(filled, m, order).tobytes()
                        == dual_hessian(fresh(), m, order).tobytes())
                params = QParams(float(1.0 - rng.uniform(-0.5, 0.5)), 1.0)
                assert (equivalence_report(filled, params, order)
                        == equivalence_report(fresh(), params, order))


class TestLogDegeneracyCache:
    def test_read_only_equal_to_log_and_kept(self):
        s = make_spectrum([0.0, 1.0, 2.5, 4.0], [1, 2, 7, 3])
        fresh = make_spectrum([0.0, 1.0, 2.5, 4.0], [1, 2, 7, 3])
        before = repr(s)
        log_g = s._log_g()
        assert not log_g.flags.writeable
        with pytest.raises(ValueError):
            log_g[0] = 1.0
        assert log_g.tobytes() == np.log(s.degeneracies).tobytes()
        assert s._log_g() is log_g
        assert repr(s) == before == repr(fresh)
        assert s == fresh and fresh == s
        assert s.__match_args__ == ("levels", "degeneracies")


class TestLoadSpectrum:
    def test_parses_levels_comments_and_blanks(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# header comment\n0.0,1\n\n1.5,2\n# trailing\n2.5,1\n")
        s = load_spectrum(path)
        assert tuple(s.levels) == (0.0, 1.5, 2.5)
        assert tuple(s.degeneracies) == (1, 2, 1)

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("0,1\n1.0\n")
        with pytest.raises(ParseError) as exc:
            load_spectrum(path)
        assert exc.value.line_number == 2

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# c\n0,1\nx,1\n")
        with pytest.raises(ParseError) as exc:
            load_spectrum(path)
        assert exc.value.line_number == 3

    def test_column_names_skipped_as_first_line(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# c\nenergy,degeneracy\n0.0,1\n1.5,2\n")
        s = load_spectrum(path)
        assert tuple(s.levels) == (0.0, 1.5)
        assert tuple(s.degeneracies) == (1, 2)

    @pytest.mark.parametrize("text, line", [
        ("energy,degeneracy\nenergy,degeneracy\n0,1\n", 2),
        ("0,1\nenergy,degeneracy\n", 2),
        ("n,beta_n\n0,1\n", 1),
    ])
    def test_other_text_lines_rejected(self, tmp_path, text, line):
        path = tmp_path / "spec.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_spectrum(path)
        assert exc.value.line_number == line

    def test_nonfinite_energy_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("inf,1\n")
        with pytest.raises(ParseError):
            load_spectrum(path)

    def test_bad_degeneracy_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("0,1.5\n")
        with pytest.raises(ParseError):
            load_spectrum(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(EmptySpectrum):
            load_spectrum(path)


class TestLineFileErrors:
    """Both line-file loaders name the file, the line and the fault."""

    @pytest.mark.parametrize("loader, text, line, message", [
        (load_spectrum, "0,1\n1.0\n", 2, "expected 'energy,degeneracy', got '1.0'"),
        (load_spectrum, "# c\n\nx,1\n", 3, "bad energy 'x'"),
        (load_spectrum, "0,1\n-inf,2\n", 2, "energy '-inf' is not finite"),
        (load_spectrum, "0,1.5\n", 1, "bad degeneracy '1.5'"),
        (load_spectrum, "0,1,2\n", 1, "expected 'energy,degeneracy', got '0,1,2'"),
        (load_multipliers, "1,0.5\n2\n", 2, "expected 'n,beta_n', got '2'"),
        (load_multipliers, "#\na,0.5\n", 2, "bad order 'a'"),
        (load_multipliers, "1,0.5\n3,0.1\n", 2, "orders must ascend from 1, got 3 after 1"),
        (load_multipliers, "1,b\n", 1, "bad multiplier 'b'"),
        (load_multipliers, "1, nan\n", 1, "multiplier ' nan' is not finite"),
        (load_multipliers, "# none\n", 0, "no multipliers found"),
    ])
    def test_message_and_line(self, tmp_path, loader, text, line, message):
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            loader(path)
        assert exc.value.line_number == line
        assert str(exc.value) == f"{path}:{line}: {message}"

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from qbg import (
    CenteredMultiplierVector,
    ClaytonParams,
    Distribution,
    MultiplierVector,
    QParams,
    bg_entropy,
    center_multipliers,
    clayton_multipliers,
    ext_distribution,
    load_multipliers,
    log_partition,
    make_spectrum,
    q_to_multipliers,
    raw_moments,
    uncenter_multipliers,
)
from qbg.errors import LengthMismatch, NonFiniteExponent, OrderTooLarge, ParseError
from qbg import extbg
from qbg.extbg import (
    _certified,
    _distributions,
    _logsumexp,
    _pairwise,
    _prefix_sums,
    _sweep,
)
from qbg.spectrum import _power_matrix

from conftest import spectra


def direct_log_partition(spectrum, coeffs):
    # brute-force oracle: plain sums, no log-space tricks
    total = 0.0
    for e, g in zip(spectrum.levels, spectrum.degeneracies):
        s = sum(c * e ** n for n, c in enumerate(coeffs, start=1))
        total += g * math.exp(-s)
    return math.log(total)


multiplier_lists = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=4
)


class TestLogPartition:
    def test_zero_multiplier_counts_states(self):
        s = make_spectrum([0, 1], [1, 1])
        assert log_partition(s, MultiplierVector((0.0,))) == pytest.approx(math.log(2), rel=1e-15)

    def test_direct_sum(self):
        # 1 + exp(-log 2) = 1.5
        s = make_spectrum([0, 1], [1, 1])
        assert log_partition(s, MultiplierVector((math.log(2),))) == pytest.approx(
            math.log(1.5), rel=1e-14
        )

    def test_square_equals_linear_on_01(self):
        # E^2 = E on {0, 1}
        s = make_spectrum([0, 1], [1, 1])
        assert log_partition(s, MultiplierVector((0.0, math.log(2)))) == pytest.approx(
            math.log(1.5), rel=1e-14
        )

    def test_no_overflow_for_large_exponents(self):
        s = make_spectrum([0, 100], [1, 1])
        value = log_partition(s, MultiplierVector((100.0,)))  # exponent 1e4
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_exponent_rejected(self):
        s = make_spectrum([0, 1e200], [1, 1])
        with pytest.raises(NonFiniteExponent):
            log_partition(s, MultiplierVector((1.0, 1.0)))

    @pytest.mark.parametrize("evaluate", [log_partition, ext_distribution])
    def test_exponent_sum_overflowing_to_minus_inf_is_refused(self, evaluate):
        # two finite terms: -1.7e308 * 1**n twice is -inf, a log weight of +inf
        s = make_spectrum([0, 1], [1, 1])
        with pytest.raises(NonFiniteExponent, match="largest log weight is inf"):
            evaluate(s, MultiplierVector((-1.7e308, -1.7e308)))

    @given(spectra(min_levels=1, max_levels=6, min_energy=-3.0, max_energy=3.0),
           multiplier_lists)
    def test_matches_direct_oracle(self, s, coeffs):
        m = MultiplierVector(tuple(coeffs))
        assert log_partition(s, m) == pytest.approx(direct_log_partition(s, coeffs),
                                                    rel=1e-12, abs=1e-12)


class TestExtDistribution:
    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            ext_distribution(make_spectrum([0, 1], [1, 1]), MultiplierVector((0.1,) * 21))

    def test_zero_multipliers_give_uniform(self):
        s = make_spectrum([0, 1], [1, 1])
        d, _ = ext_distribution(s, MultiplierVector((0.0,)))
        assert tuple(d.probs) == (0.5, 0.5)

    def test_two_level_weights(self):
        s = make_spectrum([0, 1], [1, 1])
        d, _ = ext_distribution(s, MultiplierVector((math.log(2),)))
        assert d.probs[0] == pytest.approx(2 / 3, rel=1e-14)
        assert d.probs[1] == pytest.approx(1 / 3, rel=1e-14)

    def test_quadratic_correction_weights(self):
        # weights exp(-E - 0.01 E^2), direct evaluation oracle
        s = make_spectrum([0, 1, 2], [1, 1, 1])
        d, _ = ext_distribution(s, MultiplierVector((1.0, 0.01)))
        w = [math.exp(-(e + 0.01 * e * e)) for e in (0, 1, 2)]
        z = sum(w)
        for p, expected in zip(d.probs, w):
            assert p == pytest.approx(expected / z, rel=1e-14)

    def test_pure_linear_multiplier_equals_boltzmann_exactly(self):
        # zero higher coefficients change nothing, bit for bit
        s = make_spectrum([-1.0, 0.5, 2.0], [1, 2, 1])
        d1, z1 = ext_distribution(s, MultiplierVector((0.7, 0.0, 0.0)))
        d2, z2 = ext_distribution(s, MultiplierVector((0.7,)))
        assert np.array_equal(d1.probs, d2.probs)
        assert z1 == z2

    @given(spectra(min_levels=2, max_levels=6, min_energy=-3.0, max_energy=3.0),
           multiplier_lists)
    def test_normalized(self, s, coeffs):
        d, _ = ext_distribution(s, MultiplierVector(tuple(coeffs)))
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)


class TestBgEntropy:
    def test_uniform_four(self):
        assert bg_entropy(Distribution((0.25,) * 4)) == pytest.approx(math.log(4), rel=1e-14)

    def test_point_mass(self):
        assert bg_entropy(Distribution((1.0, 0.0))) == 0.0

    def test_direct_sum(self):
        expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert bg_entropy(Distribution((2 / 3, 1 / 3))) == pytest.approx(expected, rel=1e-14)


class TestMoments:
    def test_uniform_01_raw(self):
        s = make_spectrum([0, 1], [1, 1])
        assert raw_moments(Distribution((0.5, 0.5)), s, 2).values == (0.5, 0.5)

    def test_point_mass_powers(self):
        s = make_spectrum([0, 2], [1, 1])
        assert raw_moments(Distribution((0.0, 1.0)), s, 3).values == (2.0, 4.0, 8.0)

    def test_direct_sum(self):
        s = make_spectrum([0, 1], [1, 1])
        assert raw_moments(Distribution((0.8, 0.2)), s, 2).values == pytest.approx((0.2, 0.2))

    def test_length_mismatch(self):
        s = make_spectrum([0, 1], [1, 1])
        with pytest.raises(LengthMismatch):
            raw_moments(Distribution((1.0,)), s, 1)

    def test_order_below_one_rejected(self):
        s = make_spectrum([0, 1], [1, 1])
        with pytest.raises(ValueError, match=r"^order must be >= 1$"):
            raw_moments(Distribution((0.5, 0.5)), s, 0)

    @pytest.mark.parametrize("levels, probs, order, n", [
        ([0.0, 1e200], (1.0, 0.0), 2, 2),
        ([0.0, 1e200], (0.5, 0.5), 20, 2),
        ([-1e110, 0.0, 1e110], (0.5, 0.0, 0.5), 3, 3),
    ])
    def test_overflowing_power_is_refused_naming_n(self, levels, probs, order, n):
        # as solve_multipliers refuses it, and with no warning first
        s = make_spectrum(levels, [1] * len(levels))
        with pytest.raises(NonFiniteExponent, match=rf"^max\|E\|\*\*{n} = 1e\+\d+\*\*{n} "
                                                    "overflows; rescale the spectrum$"):
            raw_moments(Distribution(probs), s, order)
        assert raw_moments(Distribution(probs), s, n - 1).order == n - 1

    def test_underflowing_power_is_not_refused(self):
        s = make_spectrum([0.0, 1e-170], [1, 1])
        assert raw_moments(Distribution((0.5, 0.5)), s, 2).values == (0.5 * 1e-170, 0.0)

    @given(spectra(min_levels=2, max_levels=6, min_energy=-3.0, max_energy=3.0),
           multiplier_lists, st.integers(1, 8))
    def test_matches_plain_python_sums(self, s, coeffs, order):
        d, _ = ext_distribution(s, MultiplierVector(tuple(coeffs)))
        mu = raw_moments(d, s, order).values
        pairs = [(float(p), float(e)) for p, e in zip(d.probs, s.levels)]
        for n in range(1, order + 1):
            expected = math.fsum(p * e ** n for p, e in pairs)
            # odd orders cancel, so the error scales with sum_i P_i |E_i|**n
            scale = math.fsum(p * abs(e) ** n for p, e in pairs)
            assert abs(mu[n - 1] - expected) <= 1e-13 * scale


class TestLegendreIdentity:
    @given(spectra(min_levels=2, max_levels=6, min_energy=-2.0, max_energy=3.0,
                   max_degeneracy=1), multiplier_lists)
    def test_entropy_equals_logz_plus_weighted_moments(self, s, coeffs):
        m = MultiplierVector(tuple(coeffs))
        d, log_z = ext_distribution(s, m)
        mu = raw_moments(d, s, m.order).values
        rhs = log_z + math.fsum(b * v for b, v in zip(m.coeffs, mu))
        assert bg_entropy(d) == pytest.approx(rhs, abs=1e-10)

    def test_degenerate_levels_need_state_entropy_correction(self):
        # with degeneracies the per-level entropy differs from the state-level
        # identity by sum_i P_i log g_i
        s = make_spectrum([0.0, 1.0, 2.5], [2, 3, 1])
        m = MultiplierVector((0.8, -0.05))
        d, log_z = ext_distribution(s, m)
        mu = raw_moments(d, s, m.order).values
        rhs = log_z + math.fsum(b * v for b, v in zip(m.coeffs, mu))
        log_g_mean = math.fsum(p * math.log(g) for p, g in zip(d.probs, s.degeneracies))
        assert bg_entropy(d) + log_g_mean == pytest.approx(rhs, abs=1e-10)


class TestCenteredMultipliers:
    def test_centering_at_zero_is_identity(self):
        m = MultiplierVector((0.7,))
        c = center_multipliers(m, 0.0)
        assert c.coeffs == (0.7,)
        back, shift = uncenter_multipliers(c)
        assert back.coeffs == (0.7,)
        assert shift == 0.0

    def test_uncenter_expands_square(self):
        # (E-2)^2 = E^2 - 4E + 4
        raw, shift = uncenter_multipliers(CenteredMultiplierVector((0.0, 1.0), 2.0))
        assert raw.coeffs == (-4.0, 1.0)
        assert shift == 4.0

    def test_quadratic_centered_relations(self):
        # bt_1 = b1 + 2 b2 c and bt_2 = b2, correctly rounded
        beta, delta, c = 1.3, 0.02, 0.7
        m = clayton_multipliers(ClaytonParams(beta, delta))
        centered = center_multipliers(m, c)
        expected_b1 = float(Fraction(m.coeffs[0]) + 2 * Fraction(m.coeffs[1]) * Fraction(c))
        assert centered.coeffs == (expected_b1, m.coeffs[1])

    def test_uncenter_inverts_quadratic_relations_exactly_on_dyadics(self):
        beta, b2, c = 1.0, 0.015625, 0.5
        bt1 = beta + 2 * b2 * c
        raw, _ = uncenter_multipliers(CenteredMultiplierVector((bt1, b2), c))
        assert raw.coeffs == (beta, b2)

    def test_uncenter_inverts_quadratic_relations_generic(self):
        # generic values lose at most an ulp when bt_1 is formed
        beta, delta, c = 1.3, 0.02, 0.7
        b2 = delta * beta ** 2
        bt1 = beta + 2 * b2 * c
        raw, _ = uncenter_multipliers(CenteredMultiplierVector((bt1, b2), c))
        assert raw.coeffs[0] == pytest.approx(beta, rel=1e-15)
        assert raw.coeffs[1] == b2

    @settings(max_examples=150)
    @given(
        st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=8),
        st.floats(-2.5, 2.5, allow_nan=False),
    )
    def test_roundtrip_recovers_multipliers(self, coeffs, center):
        m = MultiplierVector(tuple(coeffs))
        back, _ = uncenter_multipliers(center_multipliers(m, center))
        scale = max(1.0, max(abs(c) for c in coeffs))
        for a, b in zip(back.coeffs, m.coeffs):
            assert abs(a - b) / scale <= 1e-9

    def test_order_cap(self):
        # 21 multipliers are refused when the vector is built, raw or centered
        with pytest.raises(OrderTooLarge):
            center_multipliers(MultiplierVector((0.1,) * 21), 1.0)
        with pytest.raises(OrderTooLarge):
            uncenter_multipliers(CenteredMultiplierVector((0.1,) * 21, 1.0))
        assert MultiplierVector((0.1,) * 20).order == 20
        assert CenteredMultiplierVector((0.1,) * 20, 1.0).order == 20

    def test_non_finite_center_raises(self):
        m = MultiplierVector((1.0, 0.5))
        for center in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="center must be finite"):
                center_multipliers(m, center)

    def test_shift_covariance(self):
        # the constant shift moves log Z by -shift and leaves probabilities put
        s = make_spectrum([-1.0, 0.0, 1.5, 2.0], [1, 2, 1, 1])
        m = MultiplierVector((0.9, -0.1, 0.02))
        centered = center_multipliers(m, 1.2)
        raw_back, shift = uncenter_multipliers(centered)
        d1, z1 = ext_distribution(s, m)
        d2, z2 = ext_distribution(s, raw_back)
        assert np.max(np.abs(np.asarray(d1.probs) - d2.probs)) <= 1e-14
        # direct centered-form evaluation: exponent sum_n bt_n (E - c)^n
        exps = [
            sum(b * (e - centered.center) ** n for n, b in enumerate(centered.coeffs, 1))
            for e in s.levels
        ]
        w = [g * math.exp(-x) for g, x in zip(s.degeneracies, exps)]
        z_center = math.fsum(w)
        probs_center = [x / z_center for x in w]
        assert np.max(np.abs(np.asarray(d1.probs) - probs_center)) <= 1e-14
        # exponents differ by the constant shift, so log Z moves by -shift
        assert math.log(z_center) + shift == pytest.approx(z2, rel=1e-12, abs=1e-12)


class TestClaytonMultipliers:
    def test_reference_value(self):
        assert clayton_multipliers(ClaytonParams(1.0, 0.01)).coeffs == (1.0, 0.01)

    def test_zero_delta_is_pure_boltzmann(self):
        assert clayton_multipliers(ClaytonParams(2.0, 0.0)).coeffs == (2.0, 0.0)

    def test_quadratic_coefficient_scales_with_beta_squared(self):
        assert clayton_multipliers(ClaytonParams(2.0, 0.01)).coeffs == (2.0, 0.04)

    @pytest.mark.parametrize("delta", [0.0, -0.0, 0, Fraction(0)])
    def test_zero_delta_is_exact_at_any_beta(self, delta):
        # beta**2 = 1e400 is not a float; q = 1 - 2*delta = 1 maps to the same pair
        coeffs = clayton_multipliers(ClaytonParams(1e200, delta)).coeffs
        assert coeffs == q_to_multipliers(QParams(1.0, 1e200), 2).coeffs == (1e200, 0.0)
        assert math.copysign(1.0, coeffs[1]) == math.copysign(1.0, delta * 1.0)

    @pytest.mark.parametrize("beta, delta", [(1e200, -1e-300), (1e200, 1e-250), (1e160, 1e-16)])
    def test_overflowing_beta_squared_is_not_an_overflow(self, beta, delta):
        # beta**2 is not a float, but delta*beta**2 is: formed exactly, rounded once
        expected = float(Fraction(delta) * Fraction(beta) ** 2)
        assert clayton_multipliers(ClaytonParams(beta, delta)).coeffs == (beta, expected)

    @pytest.mark.parametrize("beta, delta", [(1e200, 1.0), (1e154, 1e300), (1e154, -1e300)])
    def test_overflowing_quadratic_coefficient_names_beta_2(self, beta, delta):
        # beta**2 overflows, or beta**2 = 1e308 does not but delta*beta**2 does
        message = r"^multiplier beta_2 = delta \* beta\*\*2 overflows$"
        with pytest.raises(ValueError, match=message):
            clayton_multipliers(ClaytonParams(beta, delta))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ClaytonParams(0.0, 0.01)
        with pytest.raises(ValueError):
            ClaytonParams(1.0, math.nan)


class TestLoadMultipliers:
    def test_parses_orders_ascending(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# comment\n1,0.5\n2,-0.25\n")
        assert load_multipliers(path).coeffs == (0.5, -0.25)

    def test_wrong_order_sequence_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0.5\n3,0.1\n")
        with pytest.raises(ParseError) as exc:
            load_multipliers(path)
        assert exc.value.line_number == 2

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError):
            load_multipliers(path)

    def test_column_names_skipped_as_first_line(self, tmp_path):
        # the header row of a map, clayton or solve report
        path = tmp_path / "m.csv"
        path.write_text("# tool: qbg\n\nn,beta_n\n1,0.5\n2,-0.25\n")
        assert load_multipliers(path).coeffs == (0.5, -0.25)

    @pytest.mark.parametrize("text, line", [
        ("n,beta_n\nn,beta_n\n1,0.5\n", 2),
        ("1,0.5\nn,beta_n\n", 2),
        ("# c\nenergy,degeneracy\n1,0.5\n", 2),
        ("N,beta_n\n1,0.5\n", 1),
    ])
    def test_other_text_lines_rejected(self, tmp_path, text, line):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_multipliers(path)
        assert exc.value.line_number == line


@pytest.mark.bits("golden")
class TestLogSumExpMatchesScipy:
    """``_logsumexp`` must equal ``scipy.special.logsumexp`` bit for bit:
    every partition sum and probability in the reports goes through it.
    Guards the goldens: the ``equiv`` golden needs scipy's tie rule."""

    @staticmethod
    def check(a):
        a = np.asarray(a, dtype=np.float64)
        expected = float(scipy_logsumexp(a))
        assert _logsumexp(a, np.empty_like(a)).hex() == expected.hex()

    @pytest.mark.parametrize("a", [
        [0.0],
        [-700.0],
        [700.0],
        [3.0, 3.0, 3.0, 3.0],
        [-2.5] * 17,
        [1.0, 1.0, 0.5, -0.25],
        [0.0, -np.inf, -1.0],
        [-np.inf, 2.0, -np.inf, 2.0],
        [700.0, -700.0, 699.0],
        [-700.0, -700.0 + 1e-13, -699.5],
        [1e-300, -1e-300, 0.0],
        # a plain max-shift sum differs from scipy in the last bit here
        [-6.57, -1.03, -3.92, -0.69],
        [0.08, -0.15, -1.22, -4.19],
        # math.log1p differs from np.log1p in the last bit here
        [2.89, 1.19, 3.47],
        [0.36, -2.3, -9.99, -1.46],
        # one, two and all entries tied at the maximum
        [0.25, 1.5, -3.0, 1.5 - 2**-52],
        [-1.0, 2.75, 0.5, 2.75, -7.0],
        [2.75] * 3,
        [-1e-300] * 5,
        # one element
        [-0.0],
        [1e300],
        [-1.7976931348623157e308],
        [5e-324],
        # s == 0: every other entry -inf, or exp underflows to 0
        [-np.inf, 4.0, -np.inf],
        [-np.inf, -2.5, -np.inf, -2.5],
        [0.0, -800.0, -np.inf],
        # |max| near 1e300
        [1e300, 1e300 - 1e284, -1e300],
        [-1e300, -1e300 - 1e284, -1e300 - 3e284],
        [1.7976931348623157e308, 1.7976931348623157e308, 1e308],
    ])
    def test_explicit_cases(self, a):
        self.check(a)

    def test_large_arrays(self):
        rng = np.random.default_rng(20071)
        for scale in (1.0, 30.0, 700.0):
            a = rng.normal(size=100_000) * scale
            self.check(a)
            a[rng.integers(0, a.size, 50)] = a.max()   # many ties
            a[rng.integers(0, a.size, 500)] = -np.inf
            self.check(a)

    @settings(max_examples=500)
    @given(st.lists(
        st.one_of(
            st.floats(-700.0, 700.0, allow_nan=False),
            st.sampled_from([-np.inf, 0.0, 1.0, -3.5]),
        ),
        min_size=1, max_size=40,
    ).filter(lambda xs: max(xs) > -np.inf))
    def test_random_arrays(self, a):
        self.check(a)


@pytest.mark.parametrize("a", [[np.inf, 0.0], [-np.inf, -np.inf], [np.nan, 1.0], [1.0, np.nan]])
def test_logsumexp_refuses_a_maximum_that_is_not_finite(a):
    a = np.array(a)
    with pytest.raises(NonFiniteExponent, match="largest log weight"):
        _logsumexp(a, np.empty_like(a))


def bits(a):
    """The float64 bit patterns of ``a``, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def exponents(spectrum, m, first=1):
    """Copies of the exponent sums ``sum_{n<=N} beta_n * E_i**n`` of ``m``
    over ``spectrum`` for N = first..m.order, as the sweep forms them."""
    powers = spectrum._powers(m.order)

    def column(n, buf):
        c = m.coeffs[n - 1]
        if c == 0.0:   # an exact +0.0 term, also where E**n overflowed
            buf.fill(0.0)
            return buf
        return np.multiply(c, powers[n - 1], out=buf)

    scratch = np.empty((4, len(spectrum)))
    with np.errstate(over="ignore", invalid="ignore"):
        return [s.copy() for s in _prefix_sums(column, m.order, scratch, first)]


@pytest.mark.bits("emulation")
class TestPrefixSumsMatchNumpy:
    """The exponent kernel adds columns in numpy's row-sum order.  The sweep
    and ``ext_distribution`` share the kernel, so numpy's own reduction is the
    independent reference; a change to numpy's order fails here.  Guards an
    emulation, not a report: it goes when the exponents are summed left to
    right.  The first-order distributions test also spells the probabilities
    out as ``exp(a - log Z)``."""

    @staticmethod
    def matrix(rng, rows, cols):
        m = rng.choice([-1.0, 1.0], (rows, cols)) * 10.0 ** rng.uniform(-8, 8, (rows, cols))
        zeros = rng.random((rows, cols)) < 0.1
        m[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
        m[0] = -0.0
        m[1, ::2] = -0.0
        m[2] = 0.0
        return m

    @staticmethod
    def columns(m):
        """``column(n, buf)`` writing column n - 1 of ``m`` into ``buf``."""
        def column(n, buf):
            buf[...] = m[:, n - 1]
            return buf
        return column

    def test_orders_1_to_20_contiguous_and_strided(self):
        rng = np.random.default_rng(2007)
        wide = self.matrix(rng, 3000, 20)
        rows = self.matrix(rng, 6000, 20)[::2]
        for m in (wide, rows):
            scratch = np.empty((4, m.shape[0]))
            sums = _prefix_sums(self.columns(m), 20, scratch, 1)
            for n, s in enumerate(sums, start=1):
                for view in (np.ascontiguousarray(m[:, :n]), m[:, :n]):
                    assert np.array_equal(bits(s), bits(np.add.reduce(view, axis=1)))
                # between yields the scratch is the caller's to overwrite
                scratch.fill(np.nan)

    def test_a_sweep_from_any_first_order(self):
        # the sweep restarts at the last N = 1 or multiple of 8 at or below
        # `first`; whole -0.0 columns at and after those points would show a
        # leading 0.0 added in the wrong place
        rng = np.random.default_rng(19)
        wide = self.matrix(rng, 3000, 20)
        rows = self.matrix(rng, 6000, 20)[::2]
        for m in (wide, rows):
            m[:, [0, 1, 7, 8, 15, 16]] = -0.0
            scratch = np.empty((4, m.shape[0]))
            for first in range(1, 21):
                (s,) = _prefix_sums(self.columns(m), first, scratch, first)
                for view in (np.ascontiguousarray(m[:, :first]), m[:, :first]):
                    assert np.array_equal(bits(s), bits(np.add.reduce(view, axis=1)))
                sums = _prefix_sums(self.columns(m), 20, scratch, first)
                for n, s in enumerate(sums, start=first):
                    assert np.array_equal(bits(s), bits(np.add.reduce(m[:, :n], axis=1)))

    def test_pairwise_needs_a_fourth_spare_row_only_from_16_terms(self):
        rng = np.random.default_rng(16)
        m = self.matrix(rng, 3000, 20)
        out = np.empty(m.shape[0])
        for n, rows in ((8, 3), (16, 4)):   # the sweep calls it at multiples of 8 only
            _pairwise(self.columns(m), n, out, np.empty((rows, m.shape[0])))
            expected = np.add.reduce(np.ascontiguousarray(m[:, :n]), axis=1)
            assert np.array_equal(bits(np.add(0.0, out)), bits(expected))
        # the sweep's yields are rows of its scratch block, which has the
        # fourth row from order 16 on
        s = make_spectrum(np.arange(3.0), [1, 1, 1])
        for n in range(1, 21):
            a, work = next(_sweep(s, MultiplierVector((0.5,) * n), n))
            assert a.base is work.base
            assert a.base.shape == ((3 if n < 16 else 4), 3)

    def test_exponents_match_term_matrix_row_sums(self):
        rng = np.random.default_rng(41)
        levels = np.linspace(-2.0, 8.0, 10_001)   # holds E = 0
        s = make_spectrum(levels, rng.integers(1, 5, levels.size))
        for coeffs in [rng.uniform(-1.0, 1.0, 20) / 8.0 ** np.arange(1, 21),
                       # all negative: every term at E = 0 is -0.0
                       -rng.uniform(0.5, 1.0, 20) / 8.0 ** np.arange(1, 21),
                       # zero multipliers: terms 0.0 * E**n of either sign
                       np.where(np.arange(20) % 3 == 1, 0.0, -1.0 / 8.0 ** np.arange(1, 21))
                       * np.where(np.arange(20) % 2 == 0, 1.0, -1.0)]:
            terms = levels[:, None] ** np.arange(1, 21)[None, :] * coeffs
            sweep = exponents(s, MultiplierVector(tuple(coeffs)))
            for n, swept in enumerate(sweep, start=1):
                expected = bits(terms[:, :n].sum(axis=1))
                assert np.array_equal(bits(swept), expected)
                (fresh,) = exponents(s, MultiplierVector(tuple(coeffs[:n])), n)
                assert np.array_equal(bits(fresh), expected)

    @pytest.mark.bits("normalisation")
    def test_distributions_from_any_first_order_match_fresh_evaluations(self):
        rng = np.random.default_rng(43)
        levels = np.linspace(-2.0, 8.0, 3_001)
        s = make_spectrum(levels, rng.integers(1, 5, levels.size))
        coeffs = rng.uniform(-1.0, 1.0, 20) / 8.0 ** np.arange(1, 21)
        coeffs[[2, 9]] = 0.0
        m = MultiplierVector(tuple(coeffs))
        terms = levels[:, None] ** np.arange(1, 21)[None, :] * coeffs
        for first in range(1, 21):
            for n, (probs, log_z) in enumerate(_distributions(s, m, first), start=first):
                head = MultiplierVector(tuple(coeffs[:n]))
                fresh, fresh_log_z = ext_distribution(s, head)
                assert np.array_equal(bits(probs), bits(fresh.probs))
                assert log_z == fresh_log_z == log_partition(s, head)
                # an independent reference: numpy's row sums and scipy
                a = np.log(s.degeneracies) - terms[:, :n].sum(axis=1)
                assert log_z == float(scipy_logsumexp(a))
                assert np.array_equal(bits(probs), bits(np.exp(a - log_z)))

    @pytest.mark.parametrize("levels, coeffs, k", [
        ([0.0, 1e200], (1.0, 1.0, 1.0), 2),
        # 1e30**11 and 1e20**16 overflow
        ([0.0, 1e30], (1e-31,) + (0.0,) * 9 + (1e-300, 1.0), 11),
        ([0.0, 1e20], (1e-20,) * 15 + (1e-300,) * 5, 16),
    ])
    def test_nonfinite_term_rejected_at_its_order(self, levels, coeffs, k):
        s = make_spectrum(levels, [1, 1])
        m = MultiplierVector(coeffs)
        with pytest.raises(NonFiniteExponent):
            ext_distribution(s, MultiplierVector(coeffs[:k]))
        for first in range(1, k + 1):
            sweep = _distributions(s, m, first)
            for n in range(first, k):
                _, log_z = next(sweep)
                assert log_z == log_partition(s, MultiplierVector(coeffs[:n]))
            with pytest.raises(NonFiniteExponent):
                next(sweep)

    def test_zero_multiplier_times_overflowing_power_is_a_zero_term(self):
        # 1e30**n overflows from n = 11; 0.0 * inf would be NaN
        s = make_spectrum([0.0, 1e30], [1, 1])
        trailing = MultiplierVector((1e-31,) + (0.0,) * 11)
        assert [tuple(x) for x in exponents(s, trailing, 12)] == [(0.0, 0.1)]
        assert ext_distribution(s, trailing) == ext_distribution(s, MultiplierVector((1e-31,)))
        assert log_partition(s, trailing) == log_partition(s, MultiplierVector((1e-31,)))
        assert [tuple(x) for x in exponents(s, trailing)] == [(0.0, 0.1)] * 12
        boltzmann, log_z = ext_distribution(s, MultiplierVector((1e-31,)))
        assert [(tuple(p), z) for p, z in _distributions(s, trailing)] == (
            [(tuple(boltzmann.probs), log_z)] * 12)
        nonzero = MultiplierVector((1e-31,) + (0.0,) * 9 + (1e-300,))
        with pytest.raises(NonFiniteExponent):
            ext_distribution(s, nonzero)
        sweep = _distributions(s, nonzero)
        for _ in range(10):
            assert next(sweep)[1] == log_z
        with pytest.raises(NonFiniteExponent):
            next(sweep)

    @pytest.mark.parametrize("scale, certified", [(1 - 2**-20, True), (1 + 2**-20, False)])
    def test_certification_bound_changes_no_bits(self, monkeypatch, scale, certified):
        # S = sum |beta_n| * max|E|**n just below 2**1000 skips the checks and
        # just above runs them.  The tiny levels keep their weights apart, so
        # the probabilities are not a point mass; E**2 underflows there.
        levels = np.array([0.0, 1e-301, 2e-301, 3e-301, 7e-301, 1.0])
        s = make_spectrum(levels, [1, 3, 1, 2, 1, 1])
        m = MultiplierVector((0.75 * 2.0**1000 * scale, -0.25 * 2.0**1000 * scale))
        assert _certified(s._max_abs(), m.coeffs) is certified
        swept = [(bits(p).copy(), z) for p, z in _distributions(s, m)]
        monkeypatch.setattr(extbg, "_certified", lambda scale, coeffs: not certified)
        other = [(bits(p).copy(), z) for p, z in _distributions(s, m)]
        terms = levels[:, None] ** np.arange(1, 3)[None, :] * np.array(m.coeffs)
        for n, ((p, z), (p_other, z_other)) in enumerate(zip(swept, other), start=1):
            assert np.array_equal(p, p_other) and z.hex() == z_other.hex()
            # an independent reference: numpy's row sums and scipy
            a = np.log(s.degeneracies) - terms[:, :n].sum(axis=1)
            assert z.hex() == float(scipy_logsumexp(a)).hex()
            assert np.array_equal(p, bits(np.exp(a - z)))
            assert np.count_nonzero(p) == 5   # all but E = 1

    @settings(max_examples=300)
    @given(st.lists(st.floats(-1e160, 1e160), min_size=1, max_size=5, unique=True),
           st.lists(st.one_of(st.just(0.0), st.floats(-1e300, 1e300)), min_size=1, max_size=6))
    # finite terms whose order-2 sum is -inf at E = 1, or +inf at every
    # level: the strategies above do not find such sums
    @example([0.0, 1.0], [-1.7e308, -1.7e308])
    @example([0.9, 1.0], [1.5e308, 1.5e308])
    def test_nonfinite_exponent_exactly_at_a_nonfinite_term(self, levels, coeffs):
        s = make_spectrum(sorted(levels), [1] * len(levels))
        m = MultiplierVector(tuple(coeffs))

        def term_finite(c, e, n):
            try:
                return c == 0.0 or math.isfinite(c * e ** n)
            except OverflowError:
                return False

        bad = [n for n, c in enumerate(coeffs, start=1)
               if not all(term_finite(c, e, n) for e in levels)]
        # refused from the first non-finite term on, and where the largest
        # log weight -s_i is not finite: a sum of -inf at some level, or of
        # +inf at every level
        refused = [n for n, x in enumerate(exponents(s, m), start=1)
                   if bad and n >= bad[0] or not math.isfinite(np.max(-x))]
        sweep = _distributions(s, m)
        for _ in range(1, refused[0] if refused else m.order + 1):
            next(sweep)
        if refused:
            with pytest.raises(NonFiniteExponent):
                next(sweep)
        else:
            with pytest.raises(StopIteration):
                next(sweep)

    def test_finite_terms_overflowing_in_the_sum_are_allowed(self):
        # only a non-finite term is an error; an infinite exponent is a zero weight
        s = make_spectrum([0.0, 1.0], [1, 1])
        m = MultiplierVector((1.7e308, 1.7e308))
        assert [tuple(x) for x in exponents(s, m, 2)] == [(0.0, np.inf)]
        assert log_partition(s, m) == 0.0


class TestPowerMatrix:
    def test_contiguous_at_every_order(self):
        # matmul callers get (levels, order) C-contiguous copies of the
        # row-major cache, whatever order the cache was filled to
        s = make_spectrum([-1.5, 0.0, 0.3, 2.0], [1, 2, 1, 1])
        expected = s.levels[:, None] ** np.arange(1, 10)[None, :]
        s._powers(9)
        for order in (9, 4, 1):
            pw = _power_matrix(s, order)
            assert pw.shape == (4, order)
            assert pw.flags.c_contiguous
            assert np.array_equal(bits(pw), bits(expected[:, :order]))

    def test_same_bits_as_a_copy_of_one_pow_block(self):
        # the cache serves E**1 from the levels; the matrix must keep the
        # bits of a block built with pow for every n, 1 included
        rng = np.random.default_rng(12)
        levels = np.unique(np.concatenate([rng.uniform(-8.0, 8.0, 5000),
                                           [-1e300, -1e-300, -0.0, 5e-324, 1e30, 1e300]]))
        s = make_spectrum(levels, np.ones(levels.size, dtype=np.int64))
        with np.errstate(over="ignore"):
            block = np.stack([np.power(levels, np.full(levels.size, float(n)))
                              for n in range(1, 21)])
        for order in (1, 2, 12, 20, 7):
            pw = _power_matrix(s, order)
            assert pw.flags.c_contiguous and pw.shape == (levels.size, order)
            assert pw.tobytes() == np.ascontiguousarray(block[:order].T).tobytes()

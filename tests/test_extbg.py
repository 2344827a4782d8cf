import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from qbg import (
    CenteredMultiplierVector,
    ClaytonParams,
    Distribution,
    MultiplierVector,
    bg_entropy,
    center_multipliers,
    central_moments,
    clayton_multipliers,
    ext_distribution,
    load_multipliers,
    log_partition,
    make_spectrum,
    raw_moments,
    uncenter_multipliers,
)
from qbg.errors import LengthMismatch, NonFiniteExponent, OrderTooLarge, ParseError
from qbg.extbg import _exponents, _logsumexp, _power_matrix, _prefix_sums, _truncated_exponents

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

    def test_first_central_moment_is_exact_zero(self):
        s = make_spectrum([0, 1, 5], [1, 1, 1])
        assert central_moments(Distribution((0.3, 0.3, 0.4)), s, 3).values[0] == 0.0

    def test_fair_coin_variance(self):
        s = make_spectrum([0, 1], [1, 1])
        assert central_moments(Distribution((0.5, 0.5)), s, 2).values[1] == pytest.approx(0.25, rel=1e-14)

    def test_symmetric_third_moment_vanishes(self):
        s = make_spectrum([-1, 0, 1], [1, 1, 1])
        third = central_moments(Distribution((0.25, 0.5, 0.25)), s, 3).values[2]
        assert third == pytest.approx(0.0, abs=1e-16)

    def test_length_mismatch(self):
        s = make_spectrum([0, 1], [1, 1])
        with pytest.raises(LengthMismatch):
            raw_moments(Distribution((1.0,)), s, 1)

    @given(spectra(min_levels=2, max_levels=6, min_energy=-3.0, max_energy=3.0),
           st.floats(-2.0, 2.0, allow_nan=False))
    def test_binomial_identity_links_raw_and_central(self, s, shift):
        d, _ = ext_distribution(s, MultiplierVector((0.3,)))
        order = 4
        raw = raw_moments(d, s, order).values
        mean = raw[0]
        central = central_moments(d, s, order).values
        # <(E-m)^n> = sum_k C(n,k) <E^k> (-m)^(n-k)
        raw0 = (1.0,) + raw
        for n in range(1, order + 1):
            expected = math.fsum(
                math.comb(n, k) * raw0[k] * (-mean) ** (n - k) for k in range(n + 1)
            )
            assert central[n - 1] == pytest.approx(expected, abs=1e-10)


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


class TestLogSumExpMatchesScipy:
    """``_logsumexp`` must equal ``scipy.special.logsumexp`` bit for bit:
    every partition sum and probability in the reports goes through it."""

    @staticmethod
    def check(a):
        a = np.asarray(a, dtype=np.float64)
        assert _logsumexp(a) == float(scipy_logsumexp(a))

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


def bits(a):
    """The float64 bit patterns of ``a``, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def sweep_of(spectrum, m):
    """The exponent sweep of ``m`` over ``spectrum``, with its own scratch."""
    return _truncated_exponents(spectrum, m, np.empty((4, len(spectrum))))


class TestPrefixSumsMatchNumpy:
    """The exponent kernel adds columns in numpy's row-sum order.  The sweep
    and ``ext_distribution`` share the kernel, so numpy's own reduction is the
    independent reference; a change to numpy's order fails here."""

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
            sums = _prefix_sums(self.columns(m), 20, scratch)
            for n, s in enumerate(sums, start=1):
                for view in (np.ascontiguousarray(m[:, :n]), m[:, :n]):
                    assert np.array_equal(bits(s), bits(np.add.reduce(view, axis=1)))
                # between yields the scratch is the caller's to overwrite
                scratch.fill(np.nan)

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
            sweep = sweep_of(s, MultiplierVector(tuple(coeffs)))
            for n, swept in enumerate(sweep, start=1):
                expected = bits(terms[:, :n].sum(axis=1))
                assert np.array_equal(bits(swept), expected)
                fresh = _exponents(s, MultiplierVector(tuple(coeffs[:n])))
                assert np.array_equal(bits(fresh), expected)

    def test_nonfinite_term_rejected_at_its_order(self):
        s = make_spectrum([0.0, 1e200], [1, 1])
        sweep = sweep_of(s, MultiplierVector((1.0, 1.0)))
        assert tuple(next(sweep)) == (0.0, 1e200)
        with pytest.raises(NonFiniteExponent):
            next(sweep)

    def test_zero_multiplier_times_overflowing_power_is_a_zero_term(self):
        # 1e30**n overflows from n = 11; 0.0 * inf would be NaN
        s = make_spectrum([0.0, 1e30], [1, 1])
        trailing = MultiplierVector((1e-31,) + (0.0,) * 11)
        assert tuple(_exponents(s, trailing)) == (0.0, 0.1)
        assert ext_distribution(s, trailing) == ext_distribution(s, MultiplierVector((1e-31,)))
        assert log_partition(s, trailing) == log_partition(s, MultiplierVector((1e-31,)))
        sweep = sweep_of(s, trailing)
        assert [tuple(x) for x in sweep] == [(0.0, 0.1)] * 12
        nonzero = MultiplierVector((1e-31,) + (0.0,) * 9 + (1e-300,))
        with pytest.raises(NonFiniteExponent):
            ext_distribution(s, nonzero)
        sweep = sweep_of(s, nonzero)
        for _ in range(10):
            assert tuple(next(sweep)) == (0.0, 0.1)
        with pytest.raises(NonFiniteExponent):
            next(sweep)

    def test_finite_terms_overflowing_in_the_sum_are_allowed(self):
        # only a non-finite term is an error; an infinite exponent is a zero weight
        s = make_spectrum([0.0, 1.0], [1, 1])
        m = MultiplierVector((1.7e308, 1.7e308))
        assert tuple(_exponents(s, m)) == (0.0, np.inf)
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

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qbg import (
    MAX_ORDER,
    EquivalenceReport,
    MultiplierVector,
    QParams,
    clayton_multipliers,
    clayton_to_q,
    convergence_domain_ratio,
    equivalence_report,
    ext_distribution,
    make_spectrum,
    multipliers_to_q,
    q_distribution,
    q_to_multipliers,
)
from qbg.params import ClaytonParams, _mapped
from qbg.errors import (
    NonFiniteExponent,
    OrderTooLarge,
    OutsideConvergenceDomain,
    ZeroLeadingMultiplier,
)

from conftest import spectra


class TestQToMultipliers:
    def test_q_one_terminates_series(self):
        assert q_to_multipliers(QParams(1.0, 2.0), 4).coeffs == (2.0, 0.0, 0.0, 0.0)

    def test_reference_quadratic_case(self):
        m = q_to_multipliers(QParams(0.98, 1.0), 2)
        assert m.coeffs[0] == 1.0
        assert m.coeffs[1] == pytest.approx(0.01, abs=1e-16)

    def test_dyadic_case_is_exact(self):
        # 1-q = 0.5 exactly: coefficients 0.5^(n-1)/n
        m = q_to_multipliers(QParams(0.5, 1.0), 3)
        assert m.coeffs == (1.0, 0.25, 0.25 / 3)
        assert m.coeffs[2] == pytest.approx(1 / 12, rel=1e-16)

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            q_to_multipliers(QParams(0.9, 1.0), 21)
        with pytest.raises(ValueError):
            q_to_multipliers(QParams(0.9, 1.0), 0)

    def test_exact_rational_inputs_stay_exact(self):
        m = q_to_multipliers(QParams(Fraction(49, 50), Fraction(1)), 2)
        assert m.coeffs == (Fraction(1), Fraction(1, 100))

    @pytest.mark.parametrize("q, beta, n", [(0.5, 1e200, 2), (-1e200, 1.0, 3)])
    def test_out_of_float_range_names_the_order(self, q, beta, n):
        with pytest.raises(ValueError, match=f"multiplier beta_{n} = "):
            q_to_multipliers(QParams(q, beta), 4)

    @pytest.mark.parametrize("q, beta, order", [
        (1 - 2 ** -53, 1e160, 2), (1 + 2 ** -40, 1e160, 2), (-1e200, 1e-100, 4)])
    def test_overflowing_power_is_not_an_overflow(self, q, beta, order):
        # beta**n or (1-q)**(n-1) is not a float, but beta_n is: formed
        # exactly and rounded once
        one_minus_q, b = Fraction(1 - q), Fraction(beta)
        expected = tuple(float(one_minus_q ** (n - 1) * b ** n / n)
                         for n in range(1, order + 1))
        assert q_to_multipliers(QParams(q, beta), order).coeffs == expected

    def test_q_one_terminates_at_any_beta(self):
        # beta_n = 0 exactly for n >= 2, although beta**2 = 1e400 is not a float
        assert q_to_multipliers(QParams(1.0, 1e200), 4).coeffs == (1e200, 0.0, 0.0, 0.0)

    def test_q_one_terminates_in_exact_types(self):
        big = Fraction(10) ** 200
        m = q_to_multipliers(QParams(Fraction(1), big), 3)
        assert m.coeffs == (big, 0, 0)
        assert all(type(c) is Fraction for c in m.coeffs)

    def test_underflowed_factor_is_not_a_zero(self):
        # (1-q)**2 = 1e-400 underflows to 0.0, but beta_3 = 1e-400 * 1e600 / 3
        # is not 0: only an exact q = 1 short-cuts the exact fallback
        expected = float(Fraction(1e-200) ** 2 * Fraction(1e200) ** 3 / 3)
        assert _mapped(1e-200, 1e200, 3) == expected != 0.0


class TestMultipliersToQ:
    def test_inverts_quadratic_case(self):
        params = multipliers_to_q(MultiplierVector((1.0, 0.01)), 1e-9)
        assert params is not None
        assert params.q == 0.98
        assert params.beta == 1.0

    def test_pure_boltzmann_vector(self):
        params = multipliers_to_q(MultiplierVector((2.0, 0.0, 0.0)), 1e-9)
        assert params == QParams(1.0, 2.0)

    def test_inconsistent_tail_gives_no_value(self):
        # q = 0.5 from the first two coefficients forces beta_3 = 1/12
        assert multipliers_to_q(MultiplierVector((1.0, 0.25, 0.2)), 1e-9) is None

    def test_zero_leading_multiplier_rejected(self):
        with pytest.raises(ZeroLeadingMultiplier):
            multipliers_to_q(MultiplierVector((0.0, 0.1)), 1e-9)

    def test_negative_leading_multiplier_gives_no_value(self):
        assert multipliers_to_q(MultiplierVector((-1.0, 0.01)), 1e-9) is None

    def test_nan_tol_rejected(self):
        # every comparison with NaN is false: beta_3 = 5 would be accepted
        with pytest.raises(ValueError, match="NaN"):
            multipliers_to_q(MultiplierVector((1.0, 0.01, 5.0)), float("nan"))

    def test_negative_tol_gives_no_value(self):
        assert multipliers_to_q(MultiplierVector((1.0, 0.01, 5.0)), -1.0) is None
        consistent = q_to_multipliers(QParams(0.98, 1.0), 3)
        assert multipliers_to_q(consistent, -1e-9) is None
        # at order 1 nothing is compared, and a predicted beta_2 below 1e-300
        # is held to an absolute 1e-12, not to tol
        assert multipliers_to_q(MultiplierVector((0.5,)), -1.0) is None
        tiny = MultiplierVector((1e-160, 1e-310))
        assert multipliers_to_q(tiny, 1e-9) is not None
        assert multipliers_to_q(tiny, -math.inf) is None

    def test_single_coefficient_is_boltzmann(self):
        assert multipliers_to_q(MultiplierVector((0.5,)), 1e-9) == QParams(1.0, 0.5)

    def test_underflowing_beta_1_squared(self):
        # beta_1**2 underflows to 0: beta_2 = 0 still means q = 1, and a
        # nonzero beta_2 gives the finite q = 1 - 2*beta_2/beta_1**2
        assert multipliers_to_q(MultiplierVector((1e-200, 0.0)), 1e-9) == QParams(1.0, 1e-200)
        params = multipliers_to_q(MultiplierVector((1e-170, 1e-320)), 1e-9)
        exact = 1 - 2 * Fraction(1e-320) / Fraction(1e-170) ** 2
        assert params == QParams(float(exact), 1e-170)
        assert type(params.q) is float

    def test_overflowing_beta_1_squared(self):
        # beta_1**2 = 1e320 overflows to inf in floats, which would give q = 1
        # and a predicted beta_2 = 0; the exact check recovers q
        m = q_to_multipliers(QParams(1 - 2 ** -53, 1e160), 2)
        assert m.coeffs == (1e160, 5.551115123125782e303)
        params = multipliers_to_q(m, 1e-9)
        assert params == QParams(1 - 2 ** -53, 1e160)
        assert type(params.q) is float
        # 2*beta_2 = 3.4e308 overflows too; q = 1 - 2*beta_2/beta_1**2 exactly
        params = multipliers_to_q(MultiplierVector((1e160, 1.7e308)), 1e-9)
        assert params == QParams(float(1 - 2 * Fraction(1.7e308) / Fraction(1e160) ** 2), 1e160)

    def test_overflowing_prediction_gives_no_value(self):
        # (1-q)**2 overflows, but the predicted beta_3 = 4e600*1e-300/3 is
        # finite and far from 5
        assert multipliers_to_q(MultiplierVector((1e-100, 1e100, 5.0)), 1e-9) is None
        # the product (1-q)**2 * beta**3 overflows to inf in floats, which
        # every beta_3 would match
        assert multipliers_to_q(MultiplierVector((1e100, 7e203, 5.0)), 1e-9) is None

    def test_overflowing_prediction_can_match(self):
        # (1-q)**2 = 4e600 overflows; beta_n = (1-q)**(n-1) * beta**n / n do not
        one_minus_q, beta = Fraction(2e300), Fraction(1e-100)
        m = MultiplierVector(tuple(float(one_minus_q ** (n - 1) * beta ** n / n)
                                   for n in (1, 2, 3)))
        params = multipliers_to_q(m, 1e-9)
        assert params is not None and params.beta == 1e-100
        assert params.q == pytest.approx(1 - 2e300, rel=1e-15)

    def test_q_beyond_float_range_gives_no_value(self):
        # q = 1 - 2e300/1e-10 is not a finite float
        assert multipliers_to_q(MultiplierVector((1e-5, 1e300)), 1e-9) is None

    def test_non_finite_deformation_gives_no_value(self):
        # q = 1 - 3.4e308/2.25 is a finite float, but (1-q)*beta is not
        assert multipliers_to_q(MultiplierVector((1.5, 1.7e308)), 1e-9) is None

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.98, 1.0, 1.02, 1.5, 2.0])
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_roundtrip_over_grid(self, q, beta, order):
        recovered = multipliers_to_q(q_to_multipliers(QParams(q, beta), order), 1e-9)
        assert recovered is not None
        assert recovered.beta == pytest.approx(beta, rel=1e-15)
        assert recovered.q == pytest.approx(q, abs=1e-12)


class TestClaytonToQ:
    def test_reference_value(self):
        assert clayton_to_q(0.01) == 0.98

    def test_zero_delta(self):
        assert clayton_to_q(0.0) == 1.0

    def test_negative_delta_gives_q_above_one(self):
        assert clayton_to_q(-0.05) == pytest.approx(1.1, rel=1e-15)

    @pytest.mark.parametrize("delta", [1e308, -1e308])
    def test_q_past_float_range_rejected(self, delta):
        # delta is finite, 1 - 2*delta is not
        with pytest.raises(ValueError, match=r"^q = 1 - 2\*delta overflows, got delta="):
            clayton_to_q(delta)

    def test_q_at_float_range_edge_accepted(self):
        assert clayton_to_q(-8.988465674311579e307) == 1.7976931348623157e308

    def test_consistency_triangle_exact_on_dyadics(self):
        # dyadic delta makes 1-2*delta exactly representable
        for beta in (0.5, 1.0, 2.0, 4.0):
            for delta in (0.25, 0.125, -0.0625, 0.03125):
                direct = clayton_multipliers(ClaytonParams(beta, delta))
                via_q = q_to_multipliers(QParams(clayton_to_q(delta), beta), 2)
                assert direct.coeffs == via_q.coeffs

    def test_consistency_triangle_exact_rationals(self):
        for beta in (Fraction(1), Fraction(3, 2), Fraction(7)):
            for delta in (Fraction(1, 100), Fraction(-3, 70), Fraction(1, 3)):
                direct = clayton_multipliers(ClaytonParams(beta, delta))
                via_q = q_to_multipliers(QParams(clayton_to_q(delta), beta), 2)
                assert direct.coeffs == via_q.coeffs


class TestConvergenceDomainRatio:
    def test_q_one_terminates(self):
        s = make_spectrum([0, 3, 17], [1, 1, 1])
        assert convergence_domain_ratio(s, QParams(1.0, 5.0)) == 0.0

    def test_direct_max(self):
        s = make_spectrum([0, 1, 2], [1, 1, 1])
        ratio = convergence_domain_ratio(s, QParams(0.98, 1.0))
        assert ratio == pytest.approx(0.04, rel=1e-13)

    def test_divergent_regime(self):
        s = make_spectrum([0, 100], [1, 1])
        assert convergence_domain_ratio(s, QParams(0.5, 1.0)) == pytest.approx(50.0)

    def test_negative_levels_use_absolute_value(self):
        s = make_spectrum([-4, 1], [1, 1])
        assert convergence_domain_ratio(s, QParams(0.9, 1.0)) == pytest.approx(0.4, rel=1e-13)

    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40, unique=True),
        st.floats(-1e3, 1e3),
        st.floats(0.0, 1e300),
        st.sampled_from(["any", "negative", "spans zero"]),
    )
    def test_end_levels_give_the_full_maximum_bit_for_bit(self, values, q, beta, kind):
        levels = np.sort(np.array(values))
        if kind == "negative":
            levels = np.unique(-np.abs(levels) - 1.0)
        elif kind == "spans zero":
            levels = np.unique(np.concatenate([levels, -levels, [0.0]]))
        assume(math.isfinite((1.0 - q) * beta))
        params = QParams(q, beta)
        with np.errstate(over="ignore"):   # k*E may overflow to inf
            expected = float(np.max(np.abs((1.0 - q) * beta * levels)))
        got = convergence_domain_ratio(make_spectrum(levels, [1] * levels.size), params)
        assert np.float64(got).view(np.uint64) == np.float64(expected).view(np.uint64)


class TestEquivalenceReport:
    def test_multiplier_past_float_range_is_a_value_error(self):
        # beta**2 = 1e400 is not a float, and (1-q)*beta**2/2 is not either
        s = make_spectrum([0.0, 1e-300], [1, 1])
        with pytest.raises(ValueError, match="multiplier beta_2 = "):
            equivalence_report(s, QParams(0.5, 1e200), 2)

    def test_q_one_with_large_beta_is_exact(self):
        # q = 1: beta_2 is exactly 0 although beta**2 = 1e400 is not a float,
        # so every truncation is the Boltzmann distribution itself
        s = make_spectrum([0.0, 1e-300], [1, 1])
        report = equivalence_report(s, QParams(1.0, 1e200), 2)
        assert report == EquivalenceReport((1, 2), (0.0, 0.0), 0.0)

    @pytest.mark.parametrize("order, arrays", [(12, 5.5), (16, 6.5)])
    def test_peak_holds_five_level_arrays_below_order_16(self, order, arrays):
        # with the spectrum's caches warm: the exact probabilities, the running
        # sum, the scratch block (three rows, four from order 16), and the
        # small tie mask
        rng = np.random.default_rng(41)
        levels = np.linspace(-2.0, 8.0, 100_000)
        s = make_spectrum(levels, rng.integers(1, 5, levels.size))
        params = QParams(0.99, 0.3)
        equivalence_report(s, params, order)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            equivalence_report(s, params, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= arrays * 8 * levels.size

    def test_exact_at_q_one_for_every_order(self):
        s = make_spectrum([0.0, 0.7, 1.1, 3.0], [1, 2, 1, 1])
        report = equivalence_report(s, QParams(1.0, 1.3), 5)
        assert all(d <= 1e-15 for d in report.sup_distances)

    def test_zero_multipliers_on_overflowing_powers(self):
        # at q = 1 every beta_n with n >= 2 is an exact 0.0, and 1e30**n
        # overflows from n = 11
        report = equivalence_report(make_spectrum([0.0, 1e30], [1, 1]), QParams(1.0, 1e-31), 12)
        assert report.domain_ratio == 0.0
        assert report.sup_distances == (0.0,) * 12

    def test_overflowing_power_refused_where_no_multiplier_is_zero(self):
        # beta_2 = 0.5 * 1e-201**2 / 2 underflows to 0.0 while 1e200**2
        # overflows: the sweep would drop beta_2 * E**2, about 2.5e-3, and
        # repeat the order-1 distance at every order
        s = make_spectrum([0.0, 1e200], [1, 1])
        with pytest.raises(NonFiniteExponent,
                           match=r"^max\|E\|\*\*2 = 1e\+200\*\*2 overflows; rescale the spectrum$"):
            equivalence_report(s, QParams(0.5, 1e-201), 3)
        # at beta = 0 every beta_n is an exact zero
        assert equivalence_report(s, QParams(0.5, 0.0), 3).sup_distances == (0.0,) * 3

    def test_distances_shrink_inside_domain(self):
        s = make_spectrum(list(range(6)), [1] * 6)
        report = equivalence_report(s, QParams(0.98, 1.0), 12)
        assert report.domain_ratio == pytest.approx(0.1, rel=1e-14)
        assert report.orders == tuple(range(1, 13))
        for earlier, later in zip(report.sup_distances, report.sup_distances[1:]):
            assert later <= earlier
        assert report.sup_distances[-1] <= 1e-12

    def test_outside_domain_refuses(self):
        s = make_spectrum([0, 100], [1, 1])
        with pytest.raises(OutsideConvergenceDomain):
            equivalence_report(s, QParams(0.5, 1.0), 4)

    def test_order_cap(self):
        s = make_spectrum([0, 1], [1, 1])
        with pytest.raises(OrderTooLarge):
            equivalence_report(s, QParams(0.98, 1.0), 21)
        with pytest.raises(ValueError, match=r"^max_order must be >= 1$"):
            equivalence_report(s, QParams(0.98, 1.0), 0)

    @pytest.mark.parametrize("args, message", [
        (((1, 2), (0.1,), 0.5), "orders and distances must have equal length"),
        (((1,), (-0.1,), 0.5), "distances must be >= 0"),
        (((1,), (0.1,), -0.5), "domain ratio must be >= 0"),
    ])
    def test_report_fields_checked(self, args, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            EquivalenceReport(*args)

    @given(spectra(max_degeneracy=1000),
           st.floats(-0.5, 0.5, allow_nan=False), st.floats(0.01, 0.95),
           st.integers(1, MAX_ORDER))
    def test_matches_per_order_ext_distribution(self, s, one_minus_q, ratio, max_order):
        # the one-matrix sweep reproduces a fresh ext_distribution per order
        e_abs = float(np.max(np.abs(s.levels)))
        beta = min(ratio / (abs(one_minus_q) * e_abs), 5.0) if one_minus_q * e_abs else 1.0
        params = QParams(1.0 - one_minus_q, beta)
        report = equivalence_report(s, params, max_order)
        exact, _ = q_distribution(s, params)
        assert report.orders == tuple(range(1, max_order + 1))
        for order, distance in zip(report.orders, report.sup_distances):
            truncated, _ = ext_distribution(s, q_to_multipliers(params, order))
            assert distance == float(np.max(np.abs(truncated.probs - exact.probs)))

    def test_order_20_sweep_matches_ext_distribution_on_large_spectrum(self):
        # every order 1..20, so the sweep runs through the 8-lane and the
        # 16-column pairwise summation on a 12000-level spectrum
        rng = np.random.default_rng(12000)
        levels = np.linspace(-2.0, 8.0, 12_000)
        s = make_spectrum(levels, rng.integers(1, 5, levels.size))
        for params in (QParams(0.98, 1.0), QParams(1.03, 1.5)):
            report = equivalence_report(s, params, 20)
            exact, _ = q_distribution(s, params)
            assert report.orders == tuple(range(1, 21))
            for order, distance in zip(report.orders, report.sup_distances):
                truncated, _ = ext_distribution(s, q_to_multipliers(params, order))
                assert distance == float(np.max(np.abs(truncated.probs - exact.probs)))

    def test_geometric_decay_envelope(self):
        """Distances fall like r^(N+1)/(N+1).

        The instance constant is calibrated at N = 1; the envelope carries
        the geometric tail factor 1/(1-r) plus 2x headroom, since the
        calibration at a single order underestimates by up to ~30% on
        concentrated spectra.
        """
        rng = np.random.default_rng(314159)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            levels = np.sort(rng.uniform(0.0, 5.0, n))
            levels = np.unique(levels - levels[0])
            if len(levels) < 2 or levels[-1] < 1e-3:
                continue
            s = make_spectrum(levels, [1] * len(levels))
            q = 1.0 - float(rng.uniform(0.01, 0.3))
            ratio_target = float(rng.uniform(0.05, 0.5))
            beta = ratio_target / ((1 - q) * levels[-1])
            params = QParams(q, beta)
            report = equivalence_report(s, params, 8)
            r = report.domain_ratio
            d = report.sup_distances
            c = 2.0 * d[0] / r**2
            for order, dist in zip(report.orders[1:], d[1:]):
                bound = 2.0 * c * r ** (order + 1) / ((order + 1) * (1.0 - r))
                if bound > 1e-13:  # below this, float noise dominates
                    assert dist <= bound

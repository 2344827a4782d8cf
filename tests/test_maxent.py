import copy
import math
import pickle

import numpy as np
import pytest

import qbg.extbg as extbg_module
import qbg.maxent as maxent_module
from qbg import (
    MomentVector,
    MultiplierVector,
    SolverOptions,
    SolverReport,
    dual_gradient,
    dual_hessian,
    ext_distribution,
    log_partition,
    make_spectrum,
    raw_moments,
    solve_multipliers,
)
from qbg.errors import (
    InfeasibleTargets,
    NonFiniteExponent,
    NotConverged,
    OrderMismatch,
    OrderTooLarge,
    TooFewLevels,
)

from conftest import central_difference_gradient, central_difference_jacobian


def random_instance(rng, max_order=4, n_levels=(4, 10), span=(-2.0, 3.0)):
    n = int(rng.integers(*n_levels))
    levels = np.unique(np.sort(rng.uniform(span[0], span[1], n)))
    s = make_spectrum(levels, [1] * len(levels))
    order = int(rng.integers(1, max_order + 1))
    coeffs = tuple(rng.uniform(-1.0, 1.0, order))
    return s, MultiplierVector(coeffs)


def dual_objective(spectrum, coeffs, targets):
    m = MultiplierVector(tuple(coeffs))
    return log_partition(spectrum, m) + float(
        np.dot(coeffs, np.asarray(targets.values))
    )


class TestDualGradient:
    def test_zero_residual_at_uniform(self):
        s = make_spectrum([0, 1], [1, 1])
        r = dual_gradient(s, MultiplierVector((0.0,)), MomentVector((0.5,)))
        assert r == pytest.approx([0.0], abs=1e-15)

    def test_zero_residual_at_log2(self):
        s = make_spectrum([0, 1], [1, 1])
        r = dual_gradient(s, MultiplierVector((math.log(2),)), MomentVector((1 / 3,)))
        assert r == pytest.approx([0.0], abs=1e-15)

    def test_positive_residual(self):
        s = make_spectrum([0, 1], [1, 1])
        r = dual_gradient(s, MultiplierVector((0.0,)), MomentVector((0.2,)))
        assert r == pytest.approx([0.3], rel=1e-14)

    def test_order_mismatch(self):
        s = make_spectrum([0, 1, 2], [1, 1, 1])
        with pytest.raises(OrderMismatch):
            dual_gradient(s, MultiplierVector((0.1, 0.2)), MomentVector((0.5,)))

    def test_matches_finite_differences_of_dual(self):
        # grad F = mu_target - mu(b), i.e. the negative of the residual
        rng = np.random.default_rng(99)
        for _ in range(10):
            s, m = random_instance(rng)
            other = MultiplierVector(tuple(rng.uniform(-1.0, 1.0, m.order)))
            other_dist, _ = ext_distribution(s, other)
            targets = raw_moments(other_dist, s, m.order)
            residual = dual_gradient(s, m, targets)
            fd = central_difference_gradient(
                lambda b: dual_objective(s, b, targets), np.asarray(m.coeffs), 1e-6
            )
            assert np.allclose(fd, -residual, rtol=1e-6, atol=1e-9)


class TestDualHessian:
    def test_fair_coin_variance(self):
        s = make_spectrum([0, 1], [1, 1])
        h = dual_hessian(s, MultiplierVector((0.0,)), 1)
        assert h[0, 0] == pytest.approx(0.25, rel=1e-14)

    def test_point_mass_limit_vanishes(self):
        s = make_spectrum([0, 1], [1, 1])
        h = dual_hessian(s, MultiplierVector((500.0,)), 1)
        assert abs(h[0, 0]) < 1e-100

    def test_order_mismatch(self):
        s = make_spectrum([0, 1, 2], [1, 1, 1])
        for order in (2, 0, 21):
            with pytest.raises(OrderMismatch, match=rf"^multiplier order 1 but requested {order}$"):
                dual_hessian(s, MultiplierVector((0.1,)), order)
        # equal to m.order, but not an integer by the count rule
        for m, order in ((MultiplierVector((0.1, 0.2)), 2.0), (MultiplierVector((0.1,)), True)):
            with pytest.raises(ValueError, match=rf"^order must be an integer, got {order!r}$"):
                dual_hessian(s, m, order)

    def test_matches_jacobian_of_residual(self):
        # d mu_k / d b_j = -Cov(E^j, E^k), so the residual Jacobian is -H
        # (the target offset drops out of the derivative)
        rng = np.random.default_rng(123)
        for _ in range(10):
            s, m = random_instance(rng)
            order = m.order
            d, _ = ext_distribution(s, m)
            targets = raw_moments(d, s, order)
            jac = central_difference_jacobian(
                lambda b: dual_gradient(s, MultiplierVector(tuple(b)), targets),
                np.asarray(m.coeffs),
                1e-5,
            )
            h = dual_hessian(s, m, order)
            assert np.allclose(jac, -h, rtol=1e-5, atol=1e-8)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(2717)
        for _ in range(15):
            s, m = random_instance(rng)
            h = dual_hessian(s, m, m.order)
            eigenvalues = np.linalg.eigvalsh(h)
            assert eigenvalues.min() >= -1e-10


class TestSolverOptions:
    @pytest.mark.parametrize("field, value", [
        ("tol", math.inf), ("tol", math.nan), ("tol", 0.0), ("tol", -1e-10),
        ("max_iter", 2.5), ("max_iter", math.nan), ("max_iter", 0), ("max_iter", 2.0),
        # bool is an int subclass; True would run one iteration
        ("max_iter", True),
    ])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{field: value})

    def test_integer_max_iter_accepted(self):
        assert SolverOptions(max_iter=np.int64(3)).max_iter == 3

    def test_numpy_scalars_stored_as_python_numbers(self):
        opts = SolverOptions(np.float64(1e-9), np.int64(5))
        assert opts == SolverOptions(1e-9, 5)
        assert repr(opts) == repr(SolverOptions(1e-9, 5)) == "SolverOptions(tol=1e-09, max_iter=5)"

    def test_defaults(self):
        opts = SolverOptions()
        assert (opts.tol, opts.max_iter) == (1e-10, 200)
        assert opts == SolverOptions(1e-10, 200) == SolverOptions(max_iter=200)
        assert hash(opts) == hash((1e-10, 200))
        assert repr(opts) == "SolverOptions(tol=1e-10, max_iter=200)"

    def test_positional_arguments_are_checked_too(self):
        with pytest.raises(ValueError, match="tol"):
            SolverOptions(0.0)
        with pytest.raises(ValueError, match="max_iter"):
            SolverOptions(1e-10, 0)
        with pytest.raises(TypeError):
            SolverOptions(1e-10, 200, 1)

    def test_frozen_and_pickles(self):
        opts = SolverOptions(1e-8, 50)
        with pytest.raises(AttributeError, match="cannot assign to field 'tol'"):
            opts.tol = 1.0
        assert pickle.loads(pickle.dumps(opts)) == opts
        assert copy.deepcopy(opts) == opts


class TestSolveMultipliers:
    def test_symmetric_target_gives_zero_multiplier(self):
        s = make_spectrum([0, 1], [1, 1])
        m, report = solve_multipliers(s, MomentVector((0.5,)))
        assert m.coeffs == (0.0,)
        assert report.converged
        assert report.iterations == 0

    def test_two_level_occupancy_inversion(self):
        # P(1) = 1/3 exactly at beta = log 2
        s = make_spectrum([0, 1], [1, 1])
        m, report = solve_multipliers(s, MomentVector((1 / 3,)))
        assert report.converged
        assert m.coeffs[0] == pytest.approx(math.log(2), abs=1e-9)

    def test_quadratic_roundtrip(self):
        s = make_spectrum([0, 1, 2], [1, 1, 1])
        generating = MultiplierVector((1.0, 0.01))
        d, _ = ext_distribution(s, generating)
        m, report = solve_multipliers(s, raw_moments(d, s, 2))
        assert report.converged
        assert np.max(np.abs(np.asarray(m.coeffs) - (1.0, 0.01))) <= 1e-8

    def test_deterministic(self):
        s = make_spectrum([-1.0, 0.3, 1.7, 4.0], [1, 2, 1, 1])
        targets = MomentVector((1.1, 2.3))
        first = solve_multipliers(s, targets)
        second = solve_multipliers(s, targets)
        assert first[0].coeffs == second[0].coeffs
        assert first[1] == second[1]

    def test_mean_outside_levels_is_infeasible(self):
        s = make_spectrum([0, 1], [1, 1])
        with pytest.raises(InfeasibleTargets):
            solve_multipliers(s, MomentVector((1.5,)))

    def test_negative_variance_is_infeasible(self):
        s = make_spectrum([0, 1, 2], [1, 1, 1])
        with pytest.raises(InfeasibleTargets):
            solve_multipliers(s, MomentVector((1.0, 0.5)))

    def test_target_outside_moment_set_does_not_converge(self):
        # on {0,1,2} a mean of 1 caps the second moment at 2 (mass split
        # between the endpoints); 2.5 passes the cheap prescreen but is
        # unreachable
        s = make_spectrum([0, 1, 2], [1, 1, 1])
        with pytest.raises(NotConverged) as exc:
            solve_multipliers(s, MomentVector((1.0, 2.5)), SolverOptions(max_iter=40))
        report = exc.value.report
        assert isinstance(report, SolverReport)
        assert not report.converged
        assert report.residual_norm > 0
        assert exc.value.multipliers is not None

    def test_too_few_levels(self):
        s = make_spectrum([0, 1], [1, 1])
        with pytest.raises(TooFewLevels):
            solve_multipliers(s, MomentVector((0.5, 0.3)))

    def test_order_cap(self):
        s = make_spectrum(list(range(30)), [1] * 30)
        with pytest.raises(OrderTooLarge):
            solve_multipliers(s, MomentVector((0.0,) * 21))

    def test_roundtrip_random_instances(self):
        rng = np.random.default_rng(4242)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            lo = -float(rng.uniform(0.0, 3.0))
            hi = 1.0 + float(rng.uniform(0.0, 7.0))
            levels = np.unique(np.sort(rng.uniform(lo, hi, n)))
            degs = rng.integers(1, 4, len(levels))
            s = make_spectrum(levels, degs)
            order = int(rng.integers(1, 5))
            scale = max(abs(levels[0]), abs(levels[-1]))
            coeffs = rng.uniform(-1.0, 1.0, order) / scale ** np.arange(1, order + 1)
            generating = MultiplierVector(tuple(coeffs))
            d, _ = ext_distribution(s, generating)
            recovered, report = solve_multipliers(s, raw_moments(d, s, order))
            assert report.converged
            assert np.max(np.abs(np.asarray(recovered.coeffs) - coeffs)) <= 1e-7

    @pytest.mark.parametrize("seed, order", [(156, 2), (361, 6)])
    def test_roundtrip_seeded_instances(self, seed, order):
        # seed 156 crawled to the iteration budget at a residual of 2.4e-10
        # while the Armijo test alone decided; under a residual test without
        # the guard on F, seed 361 cycled between residuals 0.234 and 0.327
        rng = np.random.default_rng(seed)
        levels = np.unique(np.round(rng.uniform(-1.0, 8.0, rng.integers(6, 65)), 6))
        s = make_spectrum(levels, rng.integers(1, 4, len(levels)))
        assert int(rng.integers(1, 7)) == order
        powers = np.max(np.abs(levels)) ** np.arange(1, order + 1)
        coeffs = rng.uniform(-2.0, 2.0, order) / powers
        d, _ = ext_distribution(s, MultiplierVector(tuple(coeffs)))
        recovered, report = solve_multipliers(s, raw_moments(d, s, order))
        assert report.converged
        assert np.max(np.abs((np.asarray(recovered.coeffs) - coeffs) * powers)) <= 1e-6

    @pytest.mark.parametrize("targets, backtracks, residual_steps", [
        ((1.4, 2.9), False, 0),
        # from a seeded search (seed 2, coefficients uniform(-4, 4) / 3.5**n)
        ((2.9432703093521413, 9.684859305983341), True, 0),
        # the last step fails the Armijo test, F rising by an ulp
        ((2.2, 6.4), False, 1),
    ], ids=["full-steps", "backtracking", "residual-cut"])
    def test_dual_objective_is_monotone_along_accepted_iterates(
            self, monkeypatch, targets, backtracks, residual_steps):
        # F rises by no more than 1e-13 from one accepted iterate to the next;
        # a step the Armijo test refuses is taken only if F stays within 4
        # ulps and the residual's sup norm falls by the factor (1 - 1e-4 * step)
        s = make_spectrum([0.0, 0.4, 1.1, 2.0, 3.5], [1, 1, 2, 1, 1])
        t_scaled = np.asarray(targets) / 3.5 ** np.arange(1, 3)
        points, steps = [], []
        dual_state, newton_direction = maxent_module._dual_state, maxent_module._newton_direction

        def recording_state(spectrum, m, pw):
            state = dual_state(spectrum, m, pw)
            points.append((np.array(m.coeffs), state[0] + float(np.dot(m.coeffs, t_scaled)),
                           float(np.max(np.abs(state[1] - t_scaled)))))
            return state

        def recording_direction(h, residual):
            # a Newton step starts from the accepted iterate, the evaluation just before it
            direction = newton_direction(h, residual)
            steps.append((points[-1], direction, -float(residual @ direction)))
            return direction

        monkeypatch.setattr(maxent_module, "_dual_state", recording_state)
        monkeypatch.setattr(maxent_module, "_newton_direction", recording_direction)
        _, report = solve_multipliers(s, MomentVector(targets))
        accepted = [start for start, _, _ in steps] + [points[-1]]   # and the converged iterate
        assert report.converged and len(accepted) == report.iterations + 1 >= 2
        assert (len(points) > len(accepted)) == backtracks   # rejected trials
        residual_cuts = 0
        for ((b, dual, norm), direction, slope), (b_next, dual_next, norm_next) in zip(
                steps, accepted[1:]):
            assert dual_next <= dual + 1e-13
            step = 2.0 ** round(math.log2(np.max(np.abs(b_next - b)) / np.max(np.abs(direction))))
            if dual_next > dual + 1e-4 * step * slope:
                residual_cuts += 1
                assert dual_next <= dual + 4 * math.ulp(dual)
                assert norm_next <= (1 - 1e-4 * step) * norm
        assert residual_cuts == residual_steps

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # the line search backtracks here (one rejected trial), and an
        # accepted trial is the next iterate
        s = make_spectrum([0.0, 0.4, 1.1, 2.0, 3.5], [1, 1, 2, 1, 1])
        seen = []
        distributions = extbg_module._distributions

        def recording(spectrum, m, first=1):
            seen.append(tuple(m.coeffs))
            return distributions(spectrum, m, first)

        monkeypatch.setattr(extbg_module, "_distributions", recording)
        _, report = solve_multipliers(s, MomentVector((2.9432703093521413, 9.684859305983341)))
        assert report.converged and len(seen) > report.iterations + 1
        assert len(set(seen)) == len(seen)

    def test_refused_trial_is_a_failed_trial(self):
        # mu_2 = mu_1**2: zero variance, on the boundary of the moment set; a
        # trial's probabilities sum to 1.0015, which Distribution refuses
        s = make_spectrum([0, 1, 2, 3], [1] * 4)
        with pytest.raises(NotConverged) as exc:
            solve_multipliers(s, MomentVector((1.5, 2.25)))
        assert isinstance(exc.value.multipliers, MultiplierVector)
        assert not exc.value.report.converged

    def test_budget_exhausted(self):
        s = make_spectrum([0.0, 0.4, 1.1, 2.0, 3.5], [1, 1, 2, 1, 1])
        with pytest.raises(NotConverged) as exc:
            solve_multipliers(s, MomentVector((2.2, 6.4)), SolverOptions(max_iter=3))
        report = exc.value.report
        assert str(exc.value) == (f"iteration budget exhausted; residual sup norm "
                                  f"{report.residual_norm:.3e} after 3 iterations")
        assert not report.converged and report.iterations == 3
        assert report.final_step_size > 0 and report.rescale_factor == 3.5
        assert exc.value.multipliers.order == 2

    @pytest.mark.bits("normalisation")
    def test_line_search_stalled(self):
        # from a seeded search (seed 7) over targets drawn inside the cheap
        # prescreen on {0, ..., n - 1}: these lie outside the moment set, and
        # no step of at least 1e-16 lowers the dual after 12 Newton steps;
        # the 12 holds for today's probability bits
        s = make_spectrum([0, 1, 2, 3], [1] * 4)
        targets = MomentVector((2.0817632285836005, 6.298473021442121, 24.32989982121538))
        with pytest.raises(NotConverged) as exc:
            solve_multipliers(s, targets)
        report = exc.value.report
        assert str(exc.value) == (f"line search stalled; residual sup norm "
                                  f"{report.residual_norm:.3e} after 12 iterations")
        assert not report.converged and report.iterations == 12
        assert report.final_step_size > 0 and report.rescale_factor == 3.0
        assert exc.value.multipliers.order == 3

    def test_factorization_failed_beyond_the_ridge_cap(self, monkeypatch):
        monkeypatch.setattr(maxent_module, "_newton_direction", lambda h, residual: None)
        s = make_spectrum([0, 1, 2, 4], [1] * 4)
        with pytest.raises(NotConverged) as exc:
            solve_multipliers(s, MomentVector((1.0, 2.0)))
        # no step was taken: the multipliers are the starting zeros, and the
        # residual is the uniform distribution's, ((7/4, 21/4) - (1, 2)) / (4, 16)
        assert str(exc.value) == ("Hessian factorization failed beyond the ridge cap; "
                                  "residual sup norm 2.031e-01 after 0 iterations")
        assert exc.value.multipliers == MultiplierVector((0.0, 0.0))
        assert exc.value.report == SolverReport(False, 0, 0.203125, 0.0, 4.0)

    @pytest.mark.parametrize("levels, targets, n", [
        ([0, 1, 2, 1e160], (1.0, 1.5), 2),
        ([0, 1, 2, 1e110], (1.0, 1.5, 3.0), 3),
        ([-1e160, 0, 1, 2], (0.5, 1.5), 2),
    ])
    def test_overflowing_rescale_power_is_refused(self, levels, targets, n):
        # pyproject turns a RuntimeWarning into an error, so none is emitted either
        with pytest.raises(NonFiniteExponent, match=rf"max\|E\|\*\*{n} = .*\*\*{n} overflows"):
            solve_multipliers(make_spectrum(levels, [1] * 4), MomentVector(targets))

    @pytest.mark.parametrize("levels, targets, n", [
        ([0, 1e-170, 2e-170, 3e-170], (1.5e-170, 2.5e-340), 2),
        ([0, 1e-170, 2e-170, 3e-170, 4e-170], (1.5e-170, 3e-340, 0.0), 2),
        ([-3e-110, 0, 1e-110, 2e-110], (0.0, 1e-220, 0.0), 3),
    ])
    def test_underflowing_rescale_power_is_refused(self, levels, targets, n):
        # the targets cannot be divided by a power that is 0 in floats
        with pytest.raises(NonFiniteExponent,
                           match=rf"max\|E\|\*\*{n} = .*\*\*{n} underflows to 0"):
            solve_multipliers(make_spectrum(levels, [1] * len(levels)), MomentVector(targets))

    def test_finite_rescale_powers_of_a_wide_spectrum_still_solve(self):
        # order 1 needs only max|E|**1; tol bounds the rescaled residual
        s = make_spectrum([0, 1, 2, 1e160], [1] * 4)
        _, report = solve_multipliers(s, MomentVector((1.0,)))
        assert report.converged and report.rescale_factor == 1e160

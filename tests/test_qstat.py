import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from qbg import (
    Distribution,
    QParams,
    escort_energy,
    make_spectrum,
    product_distribution,
    q_distribution,
    tsallis_entropy,
)
from qbg.errors import AllLevelsCutOff, LengthMismatch, NonFiniteExponent
from qbg.extbg import bg_entropy
from qbg import qstat

from conftest import distributions, spectra

Q_GRID = (0.5, 0.9, 1.5, 2.0, 3.0)


def boltzmann_probs(spectrum, beta):
    # independent direct evaluation, valid while beta*E stays moderate
    w = [g * math.exp(-beta * e) for e, g in zip(spectrum.levels, spectrum.degeneracies)]
    z = math.fsum(w)
    return [x / z for x in w]


def ref_log_weight(q, beta, energy):
    """Log weight of one level in plain Python: ``log1p(u) / (1-q)`` with
    ``u = -(1-q)*beta*E``, None where the bracket ``1 + u`` is <= 0, and the
    exact ``-beta*E`` below |q-1| = 1e-12."""
    if abs(q - 1.0) < 1e-12:
        return -beta * energy
    u = -(1.0 - q) * beta * energy
    if 1.0 + u <= 0.0:
        return None
    return math.log1p(u) / (1.0 - q)


def log_weights(levels, q, beta):
    return qstat.log_weights(np.asarray(levels, dtype=np.float64), QParams(q, beta))


class TestQLogWeight:
    def test_boltzmann_branch_is_exact(self):
        assert log_weights([3.0], 1.0, 2.0)[0] == -6.0

    def test_direct_evaluation_q2(self):
        # weight (1+E)^-1 at E=1 gives log(1/2)
        assert log_weights([1.0], 2.0, 1.0)[0] == pytest.approx(-math.log(2), rel=1e-15)

    def test_cutoff_by_sign_of_bracket(self):
        # 1 - 0.5*3 = -0.5 <= 0
        assert log_weights([0.0, 3.0], 0.5, 1.0)[1] == -math.inf

    def test_bracket_zero_is_cutoff(self):
        assert log_weights([0.0, 2.0], 0.5, 1.0)[1] == -math.inf

    def test_negative_energy_cutoff_for_q_above_one(self):
        assert log_weights([-1.0, 0.0], 2.0, 1.0)[0] == -math.inf


class TestQParams:
    def test_non_finite_deformation_raises(self):
        # (1-q)*beta overflows: a level at E = 0 would get u = inf*0 = nan
        for q, beta in ((-1e300, 1e10), (1e300, 1e10), (-1.7e308, 2.0)):
            with pytest.raises(ValueError, match=r"\(1-q\)\*beta must be finite"):
                QParams(q, beta)

    def test_largest_finite_deformation_is_kept(self):
        s = make_spectrum([-1e-300, 0.0], [1, 1])
        params = QParams(-1e300, 1e8)     # (1-q)*beta = 1e308
        d, _ = q_distribution(s, params)
        assert np.array_equal(log_weights(s.levels, params.q, params.beta),
                              [ref_log_weight(params.q, params.beta, e) for e in s.levels])
        assert d.probs[1] > 0.0


class TestQDistribution:
    def test_zero_beta_gives_uniform(self):
        s = make_spectrum([0, 1], [1, 1])
        d, _ = q_distribution(s, QParams(1.0, 0.0))
        assert tuple(d.probs) == (0.5, 0.5)

    def test_q2_two_levels(self):
        # weights (1+E)^-1 = (1, 0.5); Z = 1.5
        s = make_spectrum([0, 1], [1, 1])
        d, log_z = q_distribution(s, QParams(2.0, 1.0))
        assert d.probs[0] == pytest.approx(2 / 3, rel=1e-14)
        assert d.probs[1] == pytest.approx(1 / 3, rel=1e-14)
        assert log_z == pytest.approx(math.log(1.5), rel=1e-14)

    def test_cutoff_levels_get_exact_zero(self):
        # weights (1-E/2)^2 = (1, 0.25, 0, cutoff); Z = 1.25
        s = make_spectrum([0, 1, 2, 3], [1, 1, 1, 1])
        d, log_z = q_distribution(s, QParams(0.5, 1.0))
        assert d.probs[0] == pytest.approx(0.8, rel=1e-14)
        assert d.probs[1] == pytest.approx(0.2, rel=1e-14)
        assert d.probs[2] == 0.0
        assert d.probs[3] == 0.0
        assert log_z == pytest.approx(math.log(1.25), rel=1e-14)

    def test_degeneracy_weighting(self):
        s = make_spectrum([0, 1], [3, 1])
        d, _ = q_distribution(s, QParams(1.0, 0.0))
        assert d.probs == pytest.approx((0.75, 0.25), rel=1e-14)

    def test_all_levels_cut_off(self):
        s = make_spectrum([3, 4], [1, 1])
        with pytest.raises(AllLevelsCutOff):
            q_distribution(s, QParams(0.5, 1.0))

    @pytest.mark.parametrize("levels, q, beta, largest", [
        # a weight past the float range: the log weight -beta*E, or
        # log1p(u)/(1-q) at u = +inf and q < 1, is +inf
        ([-1e308, 0.0], 1.0, 10.0, "inf"),
        ([-1e308, 0.0], 0.5, 10.0, "inf"),
        # every weight 0: each log weight is -inf
        ([1e10, 2e10], 1.0, 1e300, "-inf"),
        ([1e300, 2e300], 2.0, 1e10, "-inf"),
    ])
    def test_log_weight_that_is_not_finite_is_refused(self, levels, q, beta, largest):
        s = make_spectrum(levels, [1, 1])
        with pytest.raises(NonFiniteExponent, match=f"largest log weight is {largest};"):
            q_distribution(s, QParams(q, beta))

    @given(spectra(min_levels=2), st.sampled_from(Q_GRID),
           st.floats(0.0, 3.0, allow_nan=False))
    def test_normalization(self, s, q, beta):
        try:
            d, _ = q_distribution(s, QParams(q, beta))
        except AllLevelsCutOff:
            return
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)

    @given(spectra(min_levels=2, min_energy=0.0, max_energy=5.0),
           st.floats(0.1, 0.95, allow_nan=False), st.floats(0.1, 3.0, allow_nan=False))
    def test_cutoff_is_monotone_in_energy(self, s, q, beta):
        try:
            flags = np.isneginf(log_weights(s.levels, q, beta)).tolist()
        except AllLevelsCutOff:
            return
        # once a level is cut off, all higher levels are too
        assert flags == sorted(flags)

    def test_boltzmann_limit_close_to_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = rng.integers(2, 10)
            levels = np.sort(rng.uniform(0.0, 10.0, n))
            levels = np.unique(levels)
            s = make_spectrum(levels, [1] * len(levels))
            beta = float(rng.uniform(0.05, 2.0 / max(levels.max(), 1.0)))
            exact = boltzmann_probs(s, beta)
            for q in (1 - 1e-8, 1 + 1e-8):
                d, _ = q_distribution(s, QParams(q, beta))
                assert np.max(np.abs(np.asarray(d.probs) - exact)) <= 1e-6


def per_level_q_distribution(spectrum, params):
    """The q-distribution from one :func:`ref_log_weight` call per level, or
    None when every level is cut off."""
    a = np.array([
        -math.inf if (w := ref_log_weight(params.q, params.beta, e)) is None
        else math.log(g) + w
        for e, g in zip(spectrum.levels.tolist(), spectrum.degeneracies.tolist())
    ])
    if np.all(a == -math.inf):
        return None
    log_z = float(logsumexp(a))
    return np.exp(a - log_z), log_z


# 1 - q: both sides of 1, wide enough to cut levels off, and below the
# 1e-12 threshold of the exact Boltzmann branch
ONE_MINUS_Q = st.one_of(
    st.floats(-0.9, 0.9, allow_nan=False),
    st.floats(-1e-9, 1e-9, allow_nan=False),
    st.floats(-1e-12, 1e-12, allow_nan=False, exclude_min=True, exclude_max=True),
)


@pytest.mark.bits("normalisation")
class TestVectorizedMatchesPerLevel:
    """q_distribution is bit-identical to a per-level scalar evaluation.
    Guards today's normalisation: the reference spells the probabilities out
    as ``exp(a - log Z)``, so forming them as ``exp((a - max) - rel)``
    changes these bits."""

    @staticmethod
    def check(spectrum, params):
        reference = per_level_q_distribution(spectrum, params)
        if reference is None:
            with pytest.raises(AllLevelsCutOff):
                q_distribution(spectrum, params)
            return
        d, log_z = q_distribution(spectrum, params)
        assert np.array_equal(d.probs, reference[0])
        assert log_z == reference[1]

    @settings(max_examples=300)
    @given(spectra(max_degeneracy=1000), ONE_MINUS_Q,
           st.floats(0.0, 5.0, allow_nan=False))
    def test_random_spectra(self, s, one_minus_q, beta):
        self.check(s, QParams(1.0 - one_minus_q, beta))

    def test_large_spectrum_with_cutoffs(self):
        rng = np.random.default_rng(11)
        s = make_spectrum(np.linspace(-2.0, 8.0, 5000), rng.integers(1, 1001, 5000))
        for q, beta in ((0.8, 0.9), (0.99, 1.0), (1.2, 0.3), (1.5, 1.0),
                        (1 - 5e-13, 1.0), (1 + 5e-13, 1.0), (1 - 1e-6, 2.0)):
            self.check(s, QParams(q, beta))

    def test_1e5_levels(self):
        rng = np.random.default_rng(12)
        s = make_spectrum(equiv_large_levels(rng), rng.integers(1, 1001, 100_000))
        for q, beta in ((0.95, 1.5), (1.05, 2.25), (1 - 1e-6, 3.0), (0.8, 0.9), (1.5, 1.0)):
            self.check(s, QParams(q, beta))


def equiv_large_levels(rng):
    """1e5 jittered levels on [-2, 8], as the equiv-large benchmark builds them."""
    grid = np.linspace(-2.0, 8.0, 100_000)
    half = 0.4 * (grid[1] - grid[0])
    return grid + rng.uniform(-half, half, grid.size)


def log1p_inputs():
    """About 1e6 arguments for log1p: magnitudes 1e-300..0.999 of both signs,
    uniform draws on (-0.999, 0.999), and edge values."""
    rng = np.random.default_rng(2026)
    n = 500_000
    wide = 10.0 ** rng.uniform(-300.0, math.log10(0.999), n) * rng.choice([-1.0, 1.0], n)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.999, -0.999, -1.0 + 2.0**-53]
    return np.concatenate([wide, rng.uniform(-0.999, 0.999, n), edges])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


#: (1-q, beta) of the equiv-large benchmark's eight cases
EQUIV_LARGE_SHAPES = ((0.05, 1.5), (-0.05, 2.25), (0.01, 7.5), (-0.01, 3.75),
                      (1e-3, 3.0), (-1e-3, 3.0), (1e-6, 3.0), (-1e-6, 1.0))

#: Evaluates the q-weights of the log1p arguments on stdin in a fresh process;
#: prints the mismatches against math.log1p and a digest of math.log1p's bits.
LOG1P_CHILD = """
import hashlib, math, sys
import numpy as np
from qbg import QParams
from qbg import qstat
u = np.frombuffer(sys.stdin.buffer.read())
expected = np.fromiter(map(math.log1p, u.tolist()), np.float64, u.size)
got = qstat.log_weights(-u, QParams(0.0, 1.0))
print(np.count_nonzero(got.view(np.int64) != expected.view(np.int64)),
      hashlib.sha256(expected.tobytes()).hexdigest())
"""


def glibc_has_fma_log1p():
    """Whether glibc picks an FMA build of log1p here (x86-64 glibc >= 2.35
    on a CPU with AVX2 and FMA)."""
    name, version = platform.libc_ver()
    core = getattr(np, "_core", None) or np.core  # numpy 2 renamed np.core
    features = core._multiarray_umath.__cpu_features__
    return (name == "glibc" and platform.machine() == "x86_64"
            and tuple(map(int, version.split(".")[:2])) >= (2, 35)
            and features.get("AVX2", False) and features.get("FMA3", False))


@pytest.mark.bits("golden")
class TestLogWeightsMatchLibm:
    """The q-weights take their log1p from libm, bit for bit as math.log1p:
    numpy's SIMD log1p differs in the last bit for a few percent of inputs.
    Guards the goldens: numpy's log1p changes the ``equiv`` golden."""

    def test_log1p_arguments(self):
        u = log1p_inputs()
        # q = 0 and beta = 1 make u = -(1-q)*beta*E exactly -E, and the
        # divisor 1-q exactly 1
        got = qstat.log_weights(-u, QParams(0.0, 1.0))
        expected = np.fromiter(map(math.log1p, u.tolist()), np.float64, u.size)
        assert np.count_nonzero(bits(got) != bits(expected)) == 0

    def test_equiv_large_spectrum(self):
        levels = equiv_large_levels(np.random.default_rng(41))
        for one_minus_q, beta in EQUIV_LARGE_SHAPES:
            params = QParams(1.0 - one_minus_q, beta)
            expected = [ref_log_weight(params.q, params.beta, e) for e in levels.tolist()]
            assert None not in expected
            got = qstat.log_weights(levels, params)
            assert np.count_nonzero(bits(got) != bits(expected)) == 0

    def test_single_levels(self):
        params = QParams(0.0, 1.0)
        for u in np.random.default_rng(14).uniform(-0.999, 0.999, 2000).tolist():
            assert bits(qstat.log_weights(np.array([-u]), params))[0] == bits(math.log1p(u))

    def test_cutoff_levels_are_minus_inf(self):
        # u = -E: cut off where E >= 1, and for E = nan
        e = np.array([1.0 - 2.0**-53, 1.0, 1.5, np.inf, np.nan, -np.inf, 0.5])
        got = qstat.log_weights(e, QParams(0.0, 1.0))
        assert np.array_equal(bits(got), bits([math.log1p(-e[0]), -math.inf, -math.inf,
                                               -math.inf, -math.inf, math.inf,
                                               math.log1p(-0.5)]))

    def test_both_glibc_builds(self):
        """glibc picks its log1p when it loads: an FMA build where the CPU has
        AVX2 and FMA, else a plain one.  A child told that the CPU lacks both
        runs the plain build; the q-weights follow math.log1p under each."""
        u = log1p_inputs()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("GLIBC_TUNABLES", None)
        digests = []
        for tunables in (None, "glibc.cpu.hwcaps=-AVX2,-FMA"):
            child_env = env if tunables is None else dict(env, GLIBC_TUNABLES=tunables)
            result = subprocess.run([sys.executable, "-c", LOG1P_CHILD], input=u.tobytes(),
                                    env=child_env, capture_output=True, check=True)
            mismatches, digest = result.stdout.decode().split()
            assert int(mismatches) == 0
            digests.append(digest)
        if glibc_has_fma_log1p():
            # the two children really ran different log1p builds
            assert digests[0] != digests[1]


class TestTsallisEntropy:
    def test_uniform_two_outcomes_q2(self):
        assert tsallis_entropy(Distribution((0.5, 0.5)), 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_point_mass_is_zero_for_any_q(self):
        d = Distribution((1.0, 0.0))
        for q in (0.5, 1.0, 2.0, 3.0):
            assert tsallis_entropy(d, q) == 0.0

    def test_uniform_two_outcomes_q1(self):
        assert tsallis_entropy(Distribution((0.5, 0.5)), 1.0) == pytest.approx(math.log(2), rel=1e-14)

    def test_non_finite_q_raises(self):
        d = Distribution((0.5, 0.5))
        for q in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="q must be finite"):
                tsallis_entropy(d, q)

    def test_entropy_past_the_float_range_raises(self):
        # P**q overflows at a large negative q: expm1 gives inf, with no warning
        for d, q in ((Distribution((0.5, 0.5)), -2000.0),
                     (q_distribution(make_spectrum([0, 1, 2], [1, 3, 2]),
                                     QParams(-1000.0, 1e-6))[0], -1000.0)):
            with pytest.raises(ValueError, match=rf"^tsallis_entropy at q={q!r} "
                                                 r"must be finite, got inf$"):
                tsallis_entropy(d, q)

    @given(distributions())
    def test_continuity_at_q_one(self, d):
        s_bg = bg_entropy(d)
        for q in (1 - 1e-6, 1 + 1e-6):
            assert abs(tsallis_entropy(d, q) - s_bg) <= 1e-5

    @settings(max_examples=60)
    @given(distributions(), distributions(), st.sampled_from(Q_GRID))
    def test_pseudo_additivity(self, a, b, q):
        s_a = tsallis_entropy(a, q)
        s_b = tsallis_entropy(b, q)
        s_ab = tsallis_entropy(product_distribution(a, b), q)
        assert s_ab == pytest.approx(s_a + s_b + (1 - q) * s_a * s_b, abs=1e-12)


class TestEscortEnergy:
    def test_ground_point_mass(self):
        s = make_spectrum([0, 1], [1, 1])
        d = Distribution((1.0, 0.0))
        for q in (0.5, 1.0, 2.0):
            assert escort_energy(d, s, q) == 0.0

    def test_uniform_two_levels_q2(self):
        s = make_spectrum([0, 1], [1, 1])
        assert escort_energy(Distribution((0.5, 0.5)), s, 2.0) == pytest.approx(0.25, rel=1e-14)

    @given(spectra(min_levels=2, max_levels=6), distributions(min_size=2, max_size=6))
    def test_q_one_reduces_to_mean(self, s, d):
        if len(d) != len(s):
            return
        mean = math.fsum(p * e for p, e in zip(d.probs, s.levels))
        assert escort_energy(d, s, 1.0) == pytest.approx(mean, rel=1e-12, abs=1e-12)

    def test_degeneracy_factor(self):
        # g=2 level: each of the 2 states carries (P/2)^q, so the level
        # contributes 2*(0.5/2)^2*E = 0.125 at q=2
        s = make_spectrum([0, 1], [1, 2])
        d = Distribution((0.5, 0.5))
        assert escort_energy(d, s, 2.0) == pytest.approx(0.125, rel=1e-14)

    def test_length_mismatch(self):
        s = make_spectrum([0, 1], [1, 1])
        with pytest.raises(LengthMismatch):
            escort_energy(Distribution((1.0,)), s, 2.0)

    def test_non_finite_q_raises(self):
        s = make_spectrum([0, 1], [1, 1])
        d = Distribution((0.5, 0.5))
        for q in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="q must be finite"):
                escort_energy(d, s, q)

    @pytest.mark.parametrize("levels, value", [
        ([0, 1], "nan"),     # P**q = inf times E = 0
        ([1, 2], "inf"),
        ([-2, 1], "nan"),    # -inf + inf
    ])
    def test_energy_past_the_float_range_raises(self, levels, value):
        s = make_spectrum(levels, [1, 1])
        with pytest.raises(ValueError, match=r"^escort_energy at q=-2000\.0 must be finite, "
                                             rf"got {value}$"):
            escort_energy(Distribution((0.5, 0.5)), s, -2000.0)


class TestProductDistribution:
    def test_uniform_times_uniform(self):
        u = Distribution((0.5, 0.5))
        assert tuple(product_distribution(u, u).probs) == (0.25, 0.25, 0.25, 0.25)

    def test_point_mass_embeds_other_factor(self):
        point = Distribution((1.0, 0.0))
        d = Distribution((0.3, 0.7))
        assert tuple(product_distribution(point, d).probs) == (0.3, 0.7, 0.0, 0.0)

    def test_direct_multiplication_row_major(self):
        a = Distribution((0.8, 0.2))
        b = Distribution((0.5, 0.5))
        assert tuple(product_distribution(a, b).probs) == (0.4, 0.4, 0.1, 0.1)

    def test_factors_off_by_the_tolerance_are_accepted(self):
        # each factor sums to 1 + 9e-13, inside the tolerance; the unscaled
        # product would sum to 1 + 1.8e-12, outside it
        probs = np.full(10, 0.1)
        probs[0] += 9e-13
        d = Distribution(probs)
        joint = product_distribution(d, d).probs
        assert abs(joint.sum() - 1.0) <= 1e-15
        assert joint == pytest.approx(np.outer(probs, probs).ravel(), rel=1e-11)

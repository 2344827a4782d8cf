"""End-to-end acceptance checks for the library's core identities.

Each test prints one PASS/FAIL line with the measured numbers (visible with
``pytest -s``) and then asserts its stated tolerance.  All randomness is
seeded, every check runs in a few seconds.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qbg import (
    ClaytonParams,
    Distribution,
    MultiplierVector,
    QParams,
    bg_entropy,
    center_multipliers,
    clayton_multipliers,
    clayton_to_q,
    dual_gradient,
    dual_hessian,
    equivalence_report,
    ext_distribution,
    log_partition,
    make_spectrum,
    product_distribution,
    q_distribution,
    q_to_multipliers,
    raw_moments,
    solve_multipliers,
    tsallis_entropy,
    uncenter_multipliers,
)

from conftest import central_difference_gradient, central_difference_jacobian

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
SPECTRUM_FILE = REPO / "tests" / "data" / "spectrum_0to5.csv"


def report(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def test_1_quadratic_factor_reproduction():
    """The order-2 multipliers (beta, delta*beta**2) coincide with the
    mapped coefficients (beta, (1-q)/2*beta**2) at q = 1 - 2*delta.

    Checked with tolerance 0.  The float path reproduces (1.0, 0.01)
    exactly; the full three-way identity is checked in exact rational
    arithmetic because the binary doubles nearest to 0.98 and 0.01 differ
    from those decimals by ~1e-17, which already breaks a bitwise chain.
    """
    m_float = clayton_multipliers(ClaytonParams(1.0, 0.01))
    float_ok = m_float.coeffs == (1.0, 0.01)

    beta, delta = Fraction(1), Fraction(1, 100)
    q = clayton_to_q(delta)
    m_direct = clayton_multipliers(ClaytonParams(beta, delta))
    m_mapped = q_to_multipliers(QParams(q, beta), 2)
    exact_ok = (
        q == Fraction(98, 100)
        and m_direct.coeffs == (Fraction(1), Fraction(1, 100))
        and m_mapped.coeffs == m_direct.coeffs
    )
    report(
        "1 quadratic-factor reproduction",
        float_ok and exact_ok,
        f"float coeffs {m_float.coeffs}, rational chain equal: {exact_ok}",
    )
    assert float_ok
    assert exact_ok


def test_2_truncated_equivalence_convergence():
    """On levels {0..5} with q = 0.98, beta = 1 (domain ratio 0.1) the
    sup-norm distance d(N) between the order-N truncation and the exact
    q-distribution decreases throughout and falls below 1e-12 by order 12.

    At every order N = 1..12, d(N) agrees within 1e-13 absolute with an
    oracle evaluated here in plain Python from the closed-form q-weights
    ``[1-(1-q)*beta*E]**(1/(1-q))`` and the truncated exponent
    ``sum_{n<=N} (1-q)**(n-1) * beta**n * E**n / n``, and it stays below the
    certified truncation bound B_N = max(p_q) * (exp(2*R_N) - 1), where
    R_N = r**(N+1) / ((N+1)*(1-r)*|1-q|) bounds the discarded exponent terms
    for domain ratio r = max|(1-q)*beta*E|, plus a 1e-14 rounding term.

    The remainder fixes d(2) at ~2.46e-4: at the top level the discarded
    terms amount to 50*(0.1^3/3 + ...) ~ 0.018 in the exponent, so no
    order-2 target much below that value is attainable.
    """
    levels = list(range(6))
    q, beta = 0.98, 1.0
    spectrum = make_spectrum(levels, [1] * len(levels))
    result = equivalence_report(spectrum, QParams(q, beta), 12)
    d = result.sup_distances
    mono_ok = all(later <= earlier for earlier, later in zip(d, d[1:]))
    d12_ok = d[11] <= 1e-12

    # independent oracle: closed-form weights, no qbg computation
    def normalized(weights):
        z = math.fsum(weights)
        return [w / z for w in weights]

    a = 1.0 - q
    p_q = normalized([(1.0 - a * beta * e) ** (1.0 / a) for e in levels])
    r = max(abs(a * beta * e) for e in levels)
    oracle = []
    bounds = []
    for order in range(1, 13):
        exponents = [
            math.fsum(a ** (n - 1) * beta ** n * e ** n / n for n in range(1, order + 1))
            for e in levels
        ]
        p_n = normalized([math.exp(-x) for x in exponents])
        oracle.append(max(abs(u - v) for u, v in zip(p_n, p_q)))
        remainder = r ** (order + 1) / ((order + 1) * (1.0 - r) * abs(a))
        bounds.append(max(p_q) * math.expm1(2.0 * remainder))
    oracle_gap = max(abs(x - y) for x, y in zip(d, oracle))
    oracle_ok = oracle_gap <= 1e-13
    bound_ok = all(x <= b + 1e-14 for x, b in zip(d, bounds))
    report(
        "2 truncated-equivalence convergence",
        mono_ok and d12_ok and oracle_ok and bound_ok,
        f"d(2)={d[1]:.11e}, oracle(2)={oracle[1]:.11e}, B_2={bounds[1]:.3e}, "
        f"max |d-oracle|={oracle_gap:.3e} (target 1e-13), "
        f"d<=B+1e-14: {bound_ok}, d(12)={d[11]:.3e} (target 1e-12), "
        f"monotone={mono_ok}",
    )
    assert mono_ok
    assert d12_ok
    assert oracle_ok, f"max |d(N) - oracle(N)| is {oracle_gap:.6e} > 1e-13"
    assert bound_ok, "a distance exceeds its certified truncation bound"


def test_3_pseudo_additivity_identity():
    """S_q(AxB) = S_q(A) + S_q(B) + (1-q) S_q(A) S_q(B) for independent
    systems, within 1e-12 absolute over 100 random pairs and five q values."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        sizes = rng.integers(2, 11, size=2)
        dists = []
        for n in sizes:
            w = rng.uniform(1e-3, 1.0, n)
            dists.append(Distribution(tuple(w / w.sum())))
        a, b = dists
        joint = product_distribution(a, b)
        for q in (0.5, 0.9, 1.5, 2.0, 3.0):
            s_a = tsallis_entropy(a, q)
            s_b = tsallis_entropy(b, q)
            s_ab = tsallis_entropy(joint, q)
            worst = max(worst, abs(s_ab - (s_a + s_b + (1 - q) * s_a * s_b)))
    passed = worst <= 1e-12
    report("3 pseudo-additivity identity", passed, f"max residual {worst:.3e}")
    assert passed


def test_4_boltzmann_limit():
    """At q = 1 +/- 1e-8 the distribution is within 1e-6 sup norm of the
    exact Boltzmann distribution at the same beta (beta*E_max <= 20)."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 13))
        beta = float(rng.uniform(0.1, 2.5))
        e_max = 20.0 / beta * float(rng.uniform(0.1, 1.0))
        levels = np.unique(np.sort(rng.uniform(0.0, e_max, n)))
        s = make_spectrum(levels, [1] * len(levels))
        # independent direct evaluation of the Boltzmann weights
        w = np.exp(-beta * levels)
        exact = w / w.sum()
        for q in (1 - 1e-8, 1 + 1e-8):
            d, _ = q_distribution(s, QParams(q, beta))
            worst = max(worst, float(np.max(np.abs(np.asarray(d.probs) - exact))))
    passed = worst <= 1e-6
    report("4 Boltzmann limit", passed, f"max sup distance {worst:.3e}")
    assert passed


def test_5_solver_roundtrip():
    """solve_multipliers recovers generating multipliers within 1e-7 sup
    norm on 50 random feasible instances (order <= 4, rescaled coefficients
    in [-1, 1], 5-50 levels), converged in at most 50 iterations."""
    rng = np.random.default_rng(42)
    worst_err = 0.0
    worst_iters = 0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        lo = -float(rng.uniform(0.0, 3.0))
        hi = 1.0 + float(rng.uniform(0.0, 7.0))
        levels = np.unique(np.sort(rng.uniform(lo, hi, n)))
        degs = rng.integers(1, 4, len(levels))
        s = make_spectrum(levels, degs)
        order = int(rng.integers(1, 5))
        scale = max(abs(levels[0]), abs(levels[-1]))
        coeffs = rng.uniform(-1.0, 1.0, order) / scale ** np.arange(1, order + 1)
        d, _ = ext_distribution(s, MultiplierVector(tuple(coeffs)))
        recovered, solver_report = solve_multipliers(s, raw_moments(d, s, order))
        assert solver_report.converged
        worst_err = max(
            worst_err, float(np.max(np.abs(np.asarray(recovered.coeffs) - coeffs)))
        )
        worst_iters = max(worst_iters, solver_report.iterations)
    passed = worst_err <= 1e-7 and worst_iters <= 50
    report(
        "5 solver round-trip",
        passed,
        f"max multiplier error {worst_err:.3e}, max iterations {worst_iters}",
    )
    assert passed


def test_6_derivative_correctness():
    """dual_gradient and dual_hessian match central finite differences of
    the dual objective within 1e-6 and 1e-5 relative on 25 random instances.

    The dual F(b) = log Z(b) + b . mu_target has grad F = -(residual
    returned by dual_gradient) and Hessian equal to dual_hessian.
    """
    rng = np.random.default_rng(42)
    grad_ok = True
    hess_ok = True
    for _ in range(25):
        n = int(rng.integers(4, 11))
        levels = np.unique(np.sort(rng.uniform(-2.0, 3.0, n)))
        s = make_spectrum(levels, [1] * len(levels))
        order = int(rng.integers(1, 5))
        m = MultiplierVector(tuple(rng.uniform(-1.0, 1.0, order)))
        other = MultiplierVector(tuple(rng.uniform(-1.0, 1.0, order)))
        other_dist, _ = ext_distribution(s, other)
        targets = raw_moments(other_dist, s, order)

        def dual(b):
            return log_partition(s, MultiplierVector(tuple(b))) + float(
                np.dot(b, targets.values)
            )

        residual = dual_gradient(s, m, targets)
        fd_grad = central_difference_gradient(dual, np.asarray(m.coeffs), 1e-6)
        grad_ok &= np.allclose(fd_grad, -residual, rtol=1e-6, atol=1e-9)

        jac = central_difference_jacobian(
            lambda b: -dual_gradient(s, MultiplierVector(tuple(b)), targets),
            np.asarray(m.coeffs),
            1e-5,
        )
        hess_ok &= np.allclose(jac, dual_hessian(s, m, order), rtol=1e-5, atol=1e-8)
    report("6 derivative correctness", grad_ok and hess_ok,
           f"gradient ok: {grad_ok}, hessian ok: {hess_ok}")
    assert grad_ok
    assert hess_ok


def test_7_centered_form_identities():
    """Centering identities: round trip within 1e-9 relative (order <= 8),
    the quadratic-case relations bt_2 = delta*beta**2 and
    bt_1 = beta + 2*delta*beta**2*center hold exactly (correctly rounded
    exact arithmetic) at every tested center, and raw/centered forms give
    the same distribution within 1e-14 sup norm."""
    rng = np.random.default_rng(42)
    worst_rt = 0.0
    for _ in range(50):
        order = int(rng.integers(1, 9))
        coeffs = rng.uniform(-10.0, 10.0, order)
        center = float(rng.uniform(-5.0, 5.0))
        m = MultiplierVector(tuple(coeffs))
        back, _ = uncenter_multipliers(center_multipliers(m, center))
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(np.asarray(back.coeffs) - coeffs)))
            / float(np.max(np.abs(coeffs))),
        )
    rt_ok = worst_rt <= 1e-9

    relations_ok = True
    for beta, delta in ((1.0, 0.01), (1.3, 0.02), (2.0, -0.05)):
        m = clayton_multipliers(ClaytonParams(beta, delta))
        for center in (0.0, 0.7, -1.3, 2.0, 4.5):
            centered = center_multipliers(m, center)
            expected_b1 = float(
                Fraction(m.coeffs[0]) + 2 * Fraction(m.coeffs[1]) * Fraction(center)
            )
            relations_ok &= centered.coeffs == (expected_b1, m.coeffs[1])

    s = make_spectrum([0.0, 0.5, 1.2, 2.0, 3.1], [1] * 5)
    worst_dist = 0.0
    for beta, delta in ((1.0, 0.01), (1.3, 0.02)):
        m = clayton_multipliers(ClaytonParams(beta, delta))
        d_raw, _ = ext_distribution(s, m)
        for center in (0.7, -1.3, 2.0):
            centered = center_multipliers(m, center)
            raw_back, _ = uncenter_multipliers(centered)
            d_back, _ = ext_distribution(s, raw_back)
            # direct evaluation of the centered form as an oracle
            exps = [
                sum(b * (e - centered.center) ** k
                    for k, b in enumerate(centered.coeffs, 1))
                for e in s.levels
            ]
            w = [math.exp(-x) for x in exps]
            z = math.fsum(w)
            direct = np.asarray(w) / z
            p_raw = np.asarray(d_raw.probs)
            worst_dist = max(
                worst_dist,
                float(np.max(np.abs(p_raw - np.asarray(d_back.probs)))),
                float(np.max(np.abs(p_raw - direct))),
            )
    dist_ok = worst_dist <= 1e-14
    report(
        "7 centered-form identities",
        rt_ok and relations_ok and dist_ok,
        f"max roundtrip rel err {worst_rt:.3e}, relations exact: {relations_ok}, "
        f"max distribution gap {worst_dist:.3e}",
    )
    assert rt_ok
    assert relations_ok
    assert dist_ok


def test_8_legendre_identity():
    """bg_entropy(P) = log Z + sum_n beta_n mu_n within 1e-10 on random
    unit-degeneracy instances (the per-level entropy matches the state-level
    identity exactly when every degeneracy is 1)."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 9))
        levels = np.unique(np.sort(rng.uniform(-2.0, 3.0, n)))
        s = make_spectrum(levels, [1] * len(levels))
        order = int(rng.integers(1, 5))
        m = MultiplierVector(tuple(rng.uniform(-1.0, 1.0, order)))
        d, log_z = ext_distribution(s, m)
        mu = raw_moments(d, s, order).values
        rhs = log_z + math.fsum(b * v for b, v in zip(m.coeffs, mu))
        worst = max(worst, abs(bg_entropy(d) - rhs))
    passed = worst <= 1e-10
    report("8 Legendre identity", passed, f"max residual {worst:.3e}")
    assert passed


def test_9_cli_golden_reports(tmp_path):
    """The three reference CLI runs are byte-identical across repeated runs
    and match the checked-in golden files."""
    runs = {
        "equiv_q098_beta1_order12.csv": [
            "equiv", "--spectrum", str(SPECTRUM_FILE), "--q", "0.98",
            "--beta", "1", "--max-order", "12",
        ],
        "map_q1_beta2_order4.csv": [
            "map", "--q", "1", "--beta", "2", "--order", "4",
        ],
        "clayton_beta1_delta001.csv": [
            "clayton", "--beta", "1", "--delta", "0.01",
        ],
    }
    all_ok = True
    details = []
    for name, args in runs.items():
        outputs = []
        for attempt in (1, 2):
            out = tmp_path / f"{attempt}_{name}"
            result = subprocess.run(
                [sys.executable, "-m", "qbg", *args, "--out", str(out)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(REPO / "src"),
                     "PYTHONWARNINGS": "error"},
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        repeat_ok = outputs[0] == outputs[1]
        golden_ok = outputs[0] == (GOLDEN / name).read_bytes()
        all_ok &= repeat_ok and golden_ok
        details.append(f"{name}: repeat={repeat_ok}, golden={golden_ok}")
    report("9 CLI golden reports", all_ok, "; ".join(details))
    assert all_ok


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))

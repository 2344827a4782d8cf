"""The solver's Cholesky step against ``scipy.linalg.cho_factor``/``cho_solve``.

``maxent._newton_direction`` calls LAPACK ``dpotrf``/``dpotrs`` directly,
without the ``scipy.linalg`` package.  Here the package is the oracle: on
every (H, residual) the solver meets and on seeded random matrices, the
factor bits, the solution bits and the failure verdict (and so the ridge
sequence) must be the ones scipy gives.

Guards an emulation, not a report: these pins go with the direct LAPACK
calls when the solver takes numpy's Cholesky.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import qbg.maxent as maxent_module
from qbg import MultiplierVector, ext_distribution, make_spectrum, raw_moments
from qbg.cli import main
from qbg.errors import NotConverged

SRC = Path(__file__).parents[1] / "src"
#: the function under test, kept apart from the recording stand-in below
newton_direction = maxent_module._newton_direction
pytestmark = pytest.mark.bits("emulation")
RECORDED = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "cli_cases.json").read_text(encoding="utf-8")
)["cases"]


def scipy_direction(h, residual):
    """The solver's step as it was written on scipy.linalg."""
    n = h.shape[0]
    ridge = 0.0
    while True:
        try:
            factor = scipy.linalg.cho_factor(
                h + ridge * np.eye(n) if ridge > 0 else h, lower=True
            )
            return scipy.linalg.cho_solve(factor, residual)
        except np.linalg.LinAlgError:
            ridge = maxent_module._RIDGE_FLOOR if ridge == 0 else ridge * 10
            if ridge > maxent_module._MAX_RIDGE or ridge == 0:
                return None


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def assert_same_factor_and_step(h, residual):
    potrf, potrs = maxent_module._lapack()
    factor, info = potrf(h, lower=1, clean=0)
    try:
        expected, _ = scipy.linalg.cho_factor(h, lower=True)
    except np.linalg.LinAlgError:
        assert info > 0
    else:
        assert info == 0
        assert bits(factor) == bits(expected)
        got, info = potrs(factor, residual, lower=1)
        assert info == 0
        assert bits(got) == bits(scipy.linalg.cho_solve((expected, True), residual))
    got = newton_direction(h, residual)
    want = scipy_direction(h, residual)
    assert (got is None) == (want is None)
    if want is not None:
        assert bits(got) == bits(want)


@pytest.fixture
def seen(monkeypatch):
    """Every (H, residual) the solver passes to its Newton step."""
    calls = []

    def recording(h, residual):
        calls.append((h.copy(), residual.copy()))
        return newton_direction(h, residual)

    monkeypatch.setattr(maxent_module, "_newton_direction", recording)
    return calls


SOLVE_CASES = [c for c in RECORDED if c["subcommand"] == "solve"]


@pytest.mark.parametrize("case", SOLVE_CASES, ids=[c["id"] for c in SOLVE_CASES])
def test_every_step_of_the_recorded_solves(case, seen, tmp_path):
    for name, text in case["files"].items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    args = [a.replace("{dir}", str(tmp_path)) for a in case["args"]]
    assert main(["solve", *args, "--out", str(tmp_path / "report.csv")]) == 0
    assert seen
    for h, residual in seen:
        assert_same_factor_and_step(h, residual)


def _round_trip_steps(seen, levels, degs, shape):
    spectrum = make_spectrum(levels, degs)
    e_abs = max(abs(levels[0]), abs(levels[-1]))
    coeffs = tuple(c / e_abs ** n for n, c in enumerate(shape, start=1))
    dist, _ = ext_distribution(spectrum, MultiplierVector(coeffs))
    try:
        maxent_module.solve_multipliers(spectrum, raw_moments(dist, spectrum, len(shape)))
    except NotConverged:
        pass   # a stalled solve's steps are compared as well
    assert seen


SHAPES = ((1.5, 2.0), (-1.0, 3.0), (1.0, 1.5, -1.0), (2.0, -1.0, 1.5),
          (1.0, 1.0, -0.5, 1.0), (0.5, 2.0, 0.5, -1.0))


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_every_step_of_small_round_trips(seed, seen):
    # 6..64 levels with random gaps, as the benchmark's in-process workload
    rng = np.random.default_rng(seed)
    for i, n in enumerate((6, 8, 12, 16, 24, 32, 48, 64)):
        gaps = rng.uniform(0.2, 1.0, n - 1)
        levels = (rng.uniform(-1.0, 0.5) + np.concatenate([[0.0], np.cumsum(gaps)])).tolist()
        _round_trip_steps(seen, levels, rng.integers(1, 4, n).tolist(), SHAPES[i % len(SHAPES)])
    for h, residual in seen:
        assert_same_factor_and_step(h, residual)


@pytest.mark.parametrize("seed", [41, 42])
def test_every_step_of_large_round_trips(seed, seen):
    # jittered levels on [-2, 8] with degeneracies 1..4, all six shapes
    rng = np.random.default_rng(seed)
    grid = np.linspace(-2.0, 8.0, 5_000)
    half = 0.4 * (grid[1] - grid[0])
    levels = (grid + rng.uniform(-half, half, grid.size)).tolist()
    degs = rng.integers(1, 5, grid.size).tolist()
    for shape in SHAPES:
        _round_trip_steps(seen, levels, degs, shape)
    for h, residual in seen:
        assert_same_factor_and_step(h, residual)


def random_symmetric(rng):
    """A symmetric matrix of order 1..20: a Gram matrix (full rank or not),
    a moment Hessian on random levels, an indefinite one, or one shifted to
    the edge of positive definiteness."""
    n = int(rng.integers(1, 21))
    kind = rng.integers(4)
    if kind == 0:
        a = rng.standard_normal((n, int(rng.integers(1, n + 3))))
        return a @ a.T
    if kind == 1:
        x = rng.uniform(-1.0, 1.0, int(rng.integers(2, 40)))
        p = rng.dirichlet(np.ones(x.size))
        pw = x[:, None] ** np.arange(1, n + 1)
        mu = p @ pw
        return pw.T @ (p[:, None] * pw) - np.outer(mu, mu)
    a = rng.standard_normal((n, n))
    h = (a + a.T) / 2
    if kind == 3:
        h -= (np.linalg.eigvalsh(h)[0] + rng.uniform(-1e-12, 1e-12)) * np.eye(n)
    return h


def test_seeded_random_matrices():
    rng = np.random.default_rng(1984)
    failed = 0
    for _ in range(10_000):
        h = random_symmetric(rng)
        residual = rng.standard_normal(h.shape[0]) * 10.0 ** rng.uniform(-12, 2)
        try:
            scipy.linalg.cho_factor(h, lower=True)
        except np.linalg.LinAlgError:
            failed += 1
        assert_same_factor_and_step(h, residual)
    # not positive definite, so the ridge escalation is compared too
    assert failed > 1000


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_a_value_error(bad):
    h = np.array([[4.0, 2.0], [2.0, 3.0]])
    for where in ((0, 0), (0, 1)):
        broken = h.copy()
        broken[where] = bad
        with pytest.raises(ValueError):
            scipy.linalg.cho_factor(broken, lower=True)
        with pytest.raises(ValueError):
            newton_direction(broken, np.ones(2))
    with pytest.raises(ValueError):
        newton_direction(h, np.array([1.0, bad]))


def run_fresh(code):
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return result.stdout.split()


STEP = ("import numpy as np; h = np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, 2.0]]); "
        "r = np.array([1.0, -2.0, 0.25]); ")


def test_direct_load_first_then_scipy_linalg():
    out = run_fresh(
        STEP + "import sys, qbg.maxent as m; d = m._newton_direction(h, r); "
        "print(sum(k.split('.')[0] == 'scipy' for k in sys.modules)); "
        "import scipy.linalg as la; "
        "print(la._flapack.dpotrf is m._lapack()[0]); "
        "print(d.tobytes() == la.cho_solve(la.cho_factor(h, lower=True), r).tobytes())"
    )
    assert out == ["0", "True", "True"]


def test_scipy_linalg_first_then_direct_load():
    out = run_fresh(
        STEP + "import scipy.linalg as la, qbg.maxent as m; "
        "print(la._flapack.dpotrf is m._lapack()[0]); "
        "d = m._newton_direction(h, r); "
        "print(d.tobytes() == la.cho_solve(la.cho_factor(h, lower=True), r).tobytes())"
    )
    assert out == ["True", "True"]


def test_ridge_ladder(monkeypatch):
    # 0, then 1e-12 multiplied by 10 while <= 1e-6: products, not decimal literals
    tried = []

    def failing_potrf(a, lower, clean):
        tried.append(float(a[0, 0]))
        return a, 1

    monkeypatch.setattr(maxent_module, "_lapack", lambda: (failing_potrf, None))
    assert newton_direction(np.zeros((1, 1)), np.ones(1)) is None
    assert tried == [0.0, 1e-12, 1e-11, 9.999999999999999e-11, 9.999999999999999e-10,
                     9.999999999999999e-09, 9.999999999999998e-08, 9.999999999999997e-07]

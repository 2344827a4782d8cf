"""The public API and the example scripts that use it.

``qbg.__all__`` is pinned to a literal list, so removing or adding a public
name means editing this test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbg

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "CenteredMultiplierVector",
    "ClaytonParams",
    "Distribution",
    "EnergySpectrum",
    "EquivalenceReport",
    "MAX_ORDER",
    "MomentVector",
    "MultiplierVector",
    "QParams",
    "SolverOptions",
    "SolverReport",
    "bg_entropy",
    "center_multipliers",
    "clayton_multipliers",
    "clayton_to_q",
    "convergence_domain_ratio",
    "dual_gradient",
    "dual_hessian",
    "equivalence_report",
    "errors",
    "escort_energy",
    "ext_distribution",
    "load_multipliers",
    "load_spectrum",
    "log_partition",
    "make_spectrum",
    "multipliers_to_q",
    "product_distribution",
    "q_distribution",
    "q_to_multipliers",
    "raw_moments",
    "rescale",
    "solve_multipliers",
    "tsallis_entropy",
    "uncenter_multipliers",
]


def test_all_is_pinned():
    assert qbg.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in qbg.__all__:
        assert getattr(qbg, name) is not None


def test_solver_options_fields_are_pinned():
    # the ridge floor, Armijo constant and backtrack factor are constants
    assert qbg.SolverOptions.__match_args__ == ("tol", "max_iter")


@pytest.mark.parametrize("script", ["truncation_sweep.py", "solver_demo.py"])
def test_script_runs(script):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

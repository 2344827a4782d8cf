"""Recover multipliers from prescribed raw moments by entropy maximization.

On a finite spectrum the entropy maximizer under raw-moment constraints
``<E**n> = mu_n`` is the exponential-polynomial distribution, and the
multipliers are the unique minimizer of the strictly convex dual

    F(b) = log Z(b) + sum_n b_n * mu_n^target.

Since ``d log Z / d b_n = -mu_n(b)``, the gradient of F is
``mu_target - mu(b)`` and its Hessian is the monomial covariance matrix
``Cov(E**j, E**k)``.  :func:`dual_gradient` returns the moment residual
``mu(b) - mu_target`` (the negative gradient of F, zero exactly at the
solution) and :func:`dual_hessian` returns the covariance matrix.

:func:`solve_multipliers` runs damped Newton on F: energies are first
rescaled into [-1, 1] (raw monomials on wide spectra make the Hessian
numerically singular), the step solves ``(H + ridge*I) d = residual`` with a
ridge added only when the Cholesky factorization fails (1e-12, escalated x10
up to 1e-6), and an Armijo backtracking line search (constant 1e-4, step
halved) keeps F non-increasing.  These are fixed constants; only the
tolerance and the iteration budget are :class:`SolverOptions`.
:func:`_dual_state` evaluates each point once, the start and every trial,
and an accepted trial's ``(log Z, mu, H)`` is the next iterate's; a trial it
refuses with ``ValueError`` (a non-finite vector, or probabilities
``Distribution`` rejects) is a failed trial.  Multipliers are mapped back by
``b_n -> b_n / s**n``; a ``max|E|**n`` that overflows or underflows to 0
for an n up to the order raises :class:`NonFiniteExponent`.  Every call is
deterministic and holds no global state.

The Cholesky step calls LAPACK ``dpotrf``/``dpotrs`` exactly as
``scipy.linalg.cho_factor(lower=True)`` and ``cho_solve`` do, from the
extension ``scipy.linalg._flapack`` alone: importing the ``scipy.linalg``
package loads some 300 more modules and takes longer than the rest of a
``qbg solve`` process.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import (
    InfeasibleTargets,
    NotConverged,
    OrderMismatch,
    TooFewLevels,
)
from .extbg import _scale_powers, ext_distribution
from .params import MomentVector, MultiplierVector, _Record, _require_finite, _require_order
from .spectrum import EnergySpectrum, _power_matrix, rescale

_RIDGE_FLOOR = 1e-12
_MAX_RIDGE = 1e-6
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-16


class SolverOptions(_Record):
    """Damped-Newton settings: ``tol`` applies to the moment-residual sup norm
    of the internally rescaled problem, ``max_iter`` caps the Newton steps.
    ``tol`` must be a finite number > 0 (stored as a float if given as a
    numpy scalar), ``max_iter`` an integer >= 1 (stored as an ``int``)."""

    __match_args__ = ("tol", "max_iter")

    def __init__(self, tol: float = 1e-10, max_iter: int = 200):
        tol = _require_finite("tol", tol)
        if not tol > 0:
            raise ValueError(f"tol must be > 0, got {tol!r}")
        self.__dict__.update(tol=tol, max_iter=_require_order(max_iter, "max_iter", cap=None))


class SolverReport(_Record):
    """How a solve ended: the rescaled residual's sup norm against ``tol``,
    Newton steps, last accepted step (0.0 if none) and the rescale ``max|E|``."""

    __match_args__ = ("converged", "iterations", "residual_norm", "final_step_size",
                      "rescale_factor")

    def __init__(self, converged: bool, iterations: int, residual_norm: float,
                 final_step_size: float, rescale_factor: float):
        self.__dict__.update(converged=converged, iterations=iterations,
                             residual_norm=residual_norm, final_step_size=final_step_size,
                             rescale_factor=rescale_factor)


def dual_gradient(
    spectrum: EnergySpectrum, m: MultiplierVector, targets: MomentVector
) -> np.ndarray:
    """Moment residual ``mu_n(b) - mu_n^target`` (negative gradient of F)."""
    if targets.order != m.order:
        raise OrderMismatch(f"multiplier order {m.order} but target order {targets.order}")
    _, mu, _ = _dual_state(spectrum, m, _power_matrix(spectrum, m.order))
    return mu - np.asarray(targets.values)


def dual_hessian(
    spectrum: EnergySpectrum, m: MultiplierVector, order: int
) -> np.ndarray:
    """Covariance matrix ``Cov(E**j, E**k)`` under the current distribution;
    symmetric positive semidefinite, equals the Hessian of F."""
    if order != m.order:
        raise OrderMismatch(f"multiplier order {m.order} but requested {order}")
    return _dual_state(spectrum, m, _power_matrix(spectrum, order))[2]


def _dual_state(spectrum: EnergySpectrum, m: MultiplierVector, pw: np.ndarray):
    """``(log Z, mu, H)`` at multipliers ``m``: log-partition, raw moments
    ``mu_n = <E**n>`` and the covariance Hessian; ``pw`` is
    ``_power_matrix(spectrum, m.order)``."""
    dist, log_z = ext_distribution(spectrum, m)
    p = dist.probs
    mu = p @ pw
    return log_z, mu, pw.T @ (p[:, None] * pw) - np.outer(mu, mu)


@functools.cache
def _lapack():
    """``(dpotrf, dpotrs)`` from ``scipy.linalg._flapack``, loaded without
    importing the ``scipy.linalg`` package.  The extension registers itself
    in ``sys.modules`` as it loads; it is taken out again, so that a later
    ``import scipy.linalg`` loads it the usual way, as a package attribute."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(p, "linalg") for p in scipy.submodule_search_locations]
        )
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)
    return module.dpotrf, module.dpotrs


def _newton_direction(h: np.ndarray, residual: np.ndarray):
    """Solve (H + ridge*I) d = residual; ridge only on factorization failure,
    1e-12 escalated x10 up to 1e-6, or None past that.  A non-finite H,
    residual or factor raises ``ValueError``."""
    potrf, potrs = _lapack()
    # the calls and checks of scipy.linalg.cho_factor(lower=True) and
    # cho_solve; numpy's Cholesky differs in bits
    np.asarray_chkfinite(h)
    n = h.shape[0]
    ridge = 0.0
    while True:
        factor, info = potrf(h + ridge * np.eye(n) if ridge > 0 else h, lower=1, clean=0)
        if info == 0:
            direction, info = potrs(
                np.asarray_chkfinite(factor), np.asarray_chkfinite(residual), lower=1
            )
            if info == 0:
                return direction
        if info < 0:
            raise ValueError(f"LAPACK reported an illegal value in argument {-info}")
        ridge = ridge * 10 if ridge else _RIDGE_FLOOR
        if ridge > _MAX_RIDGE:
            return None


def solve_multipliers(
    spectrum: EnergySpectrum,
    targets: MomentVector,
    opts: SolverOptions | None = None,
) -> tuple[MultiplierVector, SolverReport]:
    """Find multipliers whose distribution reproduces the target raw moments.

    Starts from b = 0 (the uniform distribution, always interior) and takes
    damped Newton steps on the dual F until the rescaled moment residual's
    sup norm drops below ``opts.tol``.  Raises :class:`InfeasibleTargets` on
    cheap necessary-condition violations (mu_1 outside [min E, max E] or
    mu_2 < mu_1**2), and :class:`NotConverged` (carrying the best multipliers
    and a report) when the iteration budget or the line search is exhausted,
    which is the honest diagnostic for targets on or outside the boundary of
    the achievable moment set; :class:`NonFiniteExponent` if ``max|E|**n``
    overflows, or underflows to 0, for an n up to the order.
    """
    if opts is None:
        opts = SolverOptions()
    n_order = targets.order
    _require_order(n_order)
    if len(spectrum) < n_order + 1:
        raise TooFewLevels(f"order {n_order} needs at least {n_order + 1} distinct levels, "
                           f"spectrum has {len(spectrum)}")
    mu_t = np.asarray(targets.values)
    e_min, e_max = float(spectrum.levels[0]), float(spectrum.levels[-1])
    if mu_t[0] < e_min or mu_t[0] > e_max:
        raise InfeasibleTargets(f"mu_1 = {mu_t[0]} lies outside the level range "
                                f"[{e_min}, {e_max}]")
    if n_order >= 2 and mu_t[1] < mu_t[0] ** 2:
        raise InfeasibleTargets(f"mu_2 = {mu_t[1]} < mu_1**2 = {mu_t[0] ** 2}: negative variance")

    scale = spectrum._max_abs()
    scaled = rescale(spectrum, scale)
    powers_of_scale = _scale_powers(scale, n_order, underflow=True)
    t_scaled = mu_t / powers_of_scale

    pw = _power_matrix(scaled, n_order)
    b = np.zeros(n_order)
    log_z, mu, h = _dual_state(scaled, MultiplierVector(tuple(b)), pw)
    iterations = 0
    final_step = 0.0
    why = None
    while True:
        residual = mu - t_scaled
        residual_norm = float(np.max(np.abs(residual)))
        if residual_norm <= opts.tol:
            break
        if iterations >= opts.max_iter:
            why = "iteration budget exhausted"
            break
        direction = _newton_direction(h, residual)
        if direction is None:
            why = "Hessian factorization failed beyond the ridge cap"
            break
        dual_value = log_z + float(b @ t_scaled)
        # F decreases along d: grad F = -residual, so grad.d = -r.H^-1.r < 0
        slope = -float(residual @ direction)
        step = 1.0
        while step >= _MIN_STEP:
            trial = b + step * direction
            try:
                state = _dual_state(scaled, MultiplierVector(tuple(trial)), pw)
                trial_dual = state[0] + float(trial @ t_scaled)
            except ValueError:   # a non-finite trial, or probabilities Distribution refuses
                trial_dual = math.nan
            if math.isfinite(trial_dual) and trial_dual <= dual_value + _ARMIJO_C * step * slope:
                break
            step *= _BACKTRACK_FACTOR
        if step < _MIN_STEP:
            why = "line search stalled"
            break
        b = trial
        log_z, mu, h = state
        iterations += 1
        final_step = step

    multipliers = MultiplierVector(tuple(b / powers_of_scale))
    report = SolverReport(why is None, iterations, residual_norm, final_step, scale)
    if why is not None:
        raise NotConverged(
            f"{why}; residual sup norm {residual_norm:.3e} after {iterations} iterations",
            multipliers=multipliers, report=report)
    return multipliers, report

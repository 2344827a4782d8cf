"""The CLI subcommands that evaluate distributions on a spectrum, and its entry.

``dist-q``, ``dist-ext``, ``equiv``, ``solve`` and ``entropy`` have their
handlers here; the parser, the config merge, the report writer and the
numpy-free subcommands are in :mod:`qbg.commands`, whose ``main`` is
importable from here as ``qbg.cli.main``.  Importing this module loads
numpy and every numeric module of the package (``spectrum``, ``extbg``,
``qstat``, ``equivalence``, ``maxent``).
"""

from __future__ import annotations

import argparse

import numpy as np

from .commands import _fmt, _multiplier_rows, _require, main
from .equivalence import equivalence_report
from .extbg import bg_entropy, ext_distribution
from .maxent import SolverOptions, solve_multipliers
from .params import MomentVector, QParams, load_multipliers
from .qstat import escort_energy, log_weights, q_distribution, tsallis_entropy
from .spectrum import load_spectrum


def _run_dist_q(config: argparse.Namespace):
    _require(config, "spectrum", "q", "beta")
    spectrum = load_spectrum(config.spectrum)
    params = QParams(config.q, config.beta)
    dist, log_z = q_distribution(spectrum, params)
    meta = [("q", _fmt(params.q)), ("beta", _fmt(params.beta)),
            ("log_partition", _fmt(log_z))]
    # q_distribution's own mask (probability exactly 0); one more O(levels) pass
    cutoff = np.isneginf(log_weights(spectrum.levels, params)).tolist()
    rows = []
    for energy, g, p, cut in zip(spectrum.levels.tolist(), spectrum.degeneracies.tolist(),
                                 dist.probs.tolist(), cutoff):
        prob = "0" if cut else _fmt(p)
        rows.append(f"{_fmt(energy)},{g},{prob},{'true' if cut else 'false'}")
    return meta, "energy,degeneracy,probability,cutoff", rows


def _run_dist_ext(config: argparse.Namespace):
    _require(config, "spectrum", "multipliers")
    spectrum = load_spectrum(config.spectrum)
    m = load_multipliers(config.multipliers)
    dist, log_z = ext_distribution(spectrum, m)
    meta = [("order", str(m.order)), ("log_partition", _fmt(log_z))]
    rows = [
        f"{_fmt(energy)},{g},{_fmt(p)}"
        for energy, g, p in zip(spectrum.levels.tolist(), spectrum.degeneracies.tolist(),
                                dist.probs.tolist())
    ]
    return meta, "energy,degeneracy,probability", rows


def _run_equiv(config: argparse.Namespace):
    _require(config, "spectrum", "q", "beta", "max_order")
    spectrum = load_spectrum(config.spectrum)
    params = QParams(config.q, config.beta)
    report = equivalence_report(spectrum, params, config.max_order)
    meta = [("q", _fmt(params.q)), ("beta", _fmt(params.beta)),
            ("max_order", str(config.max_order)),
            ("domain_ratio", _fmt(report.domain_ratio))]
    rows = [f"{n},{_fmt(d)}" for n, d in zip(report.orders, report.sup_distances)]
    return meta, "N,sup_distance", rows


def _run_solve(config: argparse.Namespace):
    _require(config, "spectrum", "targets")
    spectrum = load_spectrum(config.spectrum)
    targets = MomentVector(config.targets)
    opts = SolverOptions() if config.tol is None else SolverOptions(tol=config.tol)
    m, report = solve_multipliers(spectrum, targets, opts)
    meta = [
        ("order", str(targets.order)),
        ("tol", _fmt(opts.tol)),
        ("converged", "true" if report.converged else "false"),
        ("iterations", str(report.iterations)),
        ("residual_norm", _fmt(report.residual_norm)),
        ("final_step_size", _fmt(report.final_step_size)),
        ("rescale_factor", _fmt(report.rescale_factor)),
    ]
    return meta, "n,beta_n", _multiplier_rows(m)


def _run_entropy(config: argparse.Namespace):
    _require(config, "spectrum")
    spectrum = load_spectrum(config.spectrum)
    has_q = config.q is not None or config.beta is not None
    if has_q and config.multipliers is not None:
        raise ValueError("entropy takes either --q/--beta or --multipliers, not both")
    if has_q:
        _require(config, "q", "beta")
        params = QParams(config.q, config.beta)
        dist, log_z = q_distribution(spectrum, params)
        meta = [("q", _fmt(params.q)), ("beta", _fmt(params.beta))]
        escort = [("escort_energy", escort_energy(dist, spectrum, params.q))]
        tsallis = [("tsallis_entropy", tsallis_entropy(dist, params.q))]
    elif config.multipliers is not None:
        m = load_multipliers(config.multipliers)
        dist, log_z = ext_distribution(spectrum, m)
        meta = [("order", str(m.order))]
        escort = tsallis = []
    else:
        raise ValueError("entropy requires --q/--beta or --multipliers")
    quantities = [("log_partition", log_z),
                  ("mean_energy", float(np.dot(dist.probs, spectrum.levels))),
                  *escort, ("bg_entropy", bg_entropy(dist)), *tsallis]
    return meta, "quantity,value", [f"{name},{_fmt(value)}" for name, value in quantities]


_HANDLERS = {
    "dist-q": _run_dist_q,
    "dist-ext": _run_dist_ext,
    "equiv": _run_equiv,
    "solve": _run_solve,
    "entropy": _run_entropy,
}

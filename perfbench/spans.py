"""In-memory spans around calls into qbg, and the per-layer figures drawn from them.

A :class:`Recorder` replaces qbg's public functions with timing wrappers.
The wrappers are bound under every name a qbg module holds for the
function (``qbg.maxent.ext_distribution`` and ``qbg.equivalence.q_distribution``
as well as ``qbg.extbg.ext_distribution``), because calls between qbg
modules go through those imported names and would otherwise bypass the
trace.  The two validating constructors, ``EnergySpectrum`` and
``Distribution``, are traced through their ``__post_init__``.

A span is ``[name, start, end, parent, op]``, plus an optional number (bytes
computed, or solver iterations).  A span's self time is its duration minus
the time its direct children cover; the self time of the benchmark's own
``op`` span is the op time no qbg layer covers ("unattributed").

This module imports only the standard library, so the traced CLI child can
load it before it starts timing ``import qbg``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("import", "cli", "spectrum", "qstat", "extbg", "maxent", "equivalence")

#: Functions whose calls are layer boundaries, by defining module.
TRACED = {
    "spectrum": ("make_spectrum", "load_spectrum", "rescale"),
    "qstat": ("q_distribution", "tsallis_entropy", "escort_energy"),
    "extbg": ("ext_distribution", "raw_moments", "bg_entropy", "load_multipliers"),
    "maxent": ("solve_multipliers",),
    "equivalence": ("equivalence_report", "q_to_multipliers",
                    "convergence_domain_ratio"),
    "cli": ("main",),
}
VALIDATED = {"spectrum": ("EnergySpectrum", "Distribution")}


def _matrix_bytes(spectrum, order):
    # one float64 array of shape (levels, order); computed, not measured
    return 8 * len(spectrum) * order


#: Per-span number recorded from a call's arguments or result.
_INFO = {
    "extbg.ext_distribution": lambda args, result: _matrix_bytes(args[0], args[1].order),
    "extbg.raw_moments": lambda args, result: _matrix_bytes(args[1], args[2]),
    "maxent.solve_multipliers": lambda args, result: result[1].iterations,
}


class Recorder:
    """Holds the spans of one process and the rebinding of qbg's names."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def _wrap(self, name, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if info is not None:
                rec[5] = info(args, result)
            return result

        return wrapper

    def install(self):
        """Rebind every qbg name for the traced functions to a wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qbg" or n.startswith("qbg.")]
        wrappers = {}
        for short, names in TRACED.items():
            home = sys.modules.get(f"qbg.{short}")
            if home is None:
                continue   # qbg.cli is not loaded by ``import qbg``
            for fname in names:
                fn = getattr(home, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        for short, classes in VALIDATED.items():
            home = sys.modules[f"qbg.{short}"]
            for cname in classes:
                cls = getattr(home, cname)
                original = cls.__post_init__
                cls.__post_init__ = self._wrap(f"{short}.{cname}", original)
                self._undo.append((cls, "__post_init__", original))

    def uninstall(self):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()


def layer_metrics(spans, op_walls=None, skip=()):
    """Per-layer metrics from the spans of the traced ops.

    Per-op figures are means over the ops, so the layers' self times and the
    unattributed time add up to the mean op time; per-call and per-solve
    figures are medians.

    ``spans`` may hold spans of several ops (their ``op`` field) and of the
    set-up (op None); ops in ``skip`` are left out.  ``op_walls`` maps op id
    to a wall time measured outside the spans; such an op's top-level spans
    are charged to it, and the rest of its wall time counts as unattributed.
    Without it every op must have a root span named ``op``.  A call that
    raised has no number, so a solve that failed is left out of the
    per-solve figures.
    """
    # imported here: in the CLI child it would preload modules qbg imports
    import statistics

    def median(values):
        return statistics.median(values) if values else 0.0

    n = len(spans)
    child_time = [0.0] * n
    for rec in spans:
        if rec[3] is not None:
            child_time[rec[3]] += rec[2] - rec[1]

    def ancestor(i, name):
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return parent
            parent = spans[parent][3]
        return None

    per_op = defaultdict(lambda: defaultdict(float))
    solver_ext = defaultdict(int)   # solve span -> ext calls inside it
    reports = defaultdict(int)      # report span -> ext calls inside it
    make_spectrum = []
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        dur = end - start
        if name == "spectrum.make_spectrum":
            make_spectrum.append(dur)
        if op is None or op in skip:
            continue
        acc = per_op[op]
        self_time = dur - child_time[i]
        if name == "op":
            acc["unattributed"] += self_time
        else:
            acc[name.split(".", 1)[0] + ".self"] += self_time
            acc[name] += dur
            acc[name + "#calls"] += 1
            if parent is None and op_walls is not None:
                acc["covered"] += dur
        if name in ("extbg.ext_distribution", "extbg.raw_moments"):
            acc["bytes"] += info or 0
        if name in ("spectrum.load_spectrum", "extbg.load_multipliers") \
                and ancestor(i, "cli.main") is not None:
            acc["cli.load"] += dur
        if name == "extbg.ext_distribution":
            solve = ancestor(i, "maxent.solve_multipliers")
            if solve is not None:
                solver_ext[solve] += 1
            report = ancestor(i, "equivalence.equivalence_report")
            if report is not None:
                reports[report] += 1
    if op_walls is not None:
        for op, wall in op_walls.items():
            per_op[op]["unattributed"] += wall - per_op[op]["covered"]

    ops = list(per_op.values())

    def mean(key, scale=1.0):
        return statistics.fmean([acc[key] * scale for acc in ops]) if ops else 0.0

    ms = 1e3
    out = {f"{layer}.self_ms": mean(f"{layer}.self", ms) for layer in LAYERS}
    solves = [(spans[i][5], calls) for i, calls in solver_ext.items()
              if spans[i][5] is not None]
    iterations = sum(it for it, _ in solves)
    calls = sum(c for _, c in solves)
    out.update({
        "cli.main_ms": mean("cli.main", ms),
        "cli.load_ms": mean("cli.load", ms),
        "spectrum.make_spectrum_ms": median(make_spectrum) * ms,
        "qstat.q_distribution_ms": mean("qstat.q_distribution", ms),
        "qstat.q_distribution_calls": mean("qstat.q_distribution#calls"),
        "extbg.ext_distribution_ms": mean("extbg.ext_distribution", ms),
        "extbg.ext_distribution_calls": mean("extbg.ext_distribution#calls"),
        "extbg.raw_moments_ms": mean("extbg.raw_moments", ms),
        "extbg.power_matrix_bytes": mean("bytes"),
        "maxent.solve_ms": mean("maxent.solve_multipliers", ms),
        "maxent.iterations": median([it for it, _ in solves]),
        "maxent.ext_calls_per_solve": median([c for _, c in solves]),
        "maxent.step_accept_ratio": iterations / calls if calls else 0.0,
        "equivalence.report_ms": mean("equivalence.equivalence_report", ms),
        "equivalence.ext_calls_per_report": median(list(reports.values())),
        "trace.unattributed_ms": mean("unattributed", ms),
    })
    return out

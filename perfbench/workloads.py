"""The benchmark's workloads: seeded inputs, one operation, and its check.

Constructing a workload is its set-up.  ``op(case)`` is the timed
operation; ``check(case, result)`` compares the result with a reference
that shares no code with qbg and returns the worst deviation as a multiple
of its tolerance, so a value above 1 is a failed operation.

The seed changes input values, never input sizes or the mix of operation
kinds, so every seed asks for about the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import numpy as np

import qbg
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
LARGE_LEVELS = 100_000


def _small_spectrum(rng, n):
    start = rng.uniform(-1.0, 0.5)
    gaps = rng.uniform(0.2, 1.0, n - 1)
    levels = (start + np.concatenate([[0.0], np.cumsum(gaps)])).tolist()
    return levels, rng.integers(1, 4, n).tolist()


def _large_spectrum(rng):
    """1e5 jittered levels on [-2, 8] with degeneracies 1..4."""
    grid = np.linspace(-2.0, 8.0, LARGE_LEVELS)
    half = 0.4 * (grid[1] - grid[0])
    levels = grid + rng.uniform(-half, half, LARGE_LEVELS)
    return levels.tolist(), rng.integers(1, 5, LARGE_LEVELS).tolist()


#: Generating multipliers for x = E/max|E| of the solve round trips.  They
#: are fixed because the Newton iteration count, and with it the op time,
#: moves with them; the seed changes the spectrum they act on.
GENERATING_SHAPES = ((1.5, 2.0), (-1.0, 3.0), (1.0, 1.5, -1.0), (2.0, -1.0, 1.5),
                     (1.0, 1.0, -0.5, 1.0), (0.5, 2.0, 0.5, -1.0))


def _scaled_multipliers(coeffs, scale):
    # coefficients given for x = E/scale, returned for powers of E
    return tuple(float(c) / scale ** n for n, c in enumerate(coeffs, start=1))


class LibSmall:
    """One small-system pipeline per op, on 6..64 levels."""

    name = "lib-small"
    SIZES = (6, 8, 12, 16, 24, 32, 48, 64)
    CASES = 24
    MAX_ORDER = 12

    def __init__(self, seed, workdir=None):
        rng = np.random.default_rng(seed)
        self.cases = []
        for i in range(self.CASES):
            n = self.SIZES[i % len(self.SIZES)]
            levels, degs = _small_spectrum(rng, n)
            e_abs = max(abs(levels[0]), abs(levels[-1]))
            # q < 1 with beta large enough that the top levels are cut off
            q_cut = float(rng.uniform(0.5, 0.9))
            beta_cut = float(rng.uniform(1.5, 3.0) / ((1.0 - q_cut) * levels[-1]))
            # q on alternating sides of 1, domain ratio in [0.2, 0.85)
            one_minus_q = (1 if i % 2 else -1) * 10 ** rng.uniform(-3.0, -1.0)
            beta_eq = float(min(rng.uniform(0.2, 0.85) / (abs(one_minus_q) * e_abs),
                                40.0 / e_abs))
            q_eq = float(1.0 - one_minus_q)
            if i == 0:
                # the documented check-2 system: d(2) = 2.457e-4 is correct output
                levels, degs, q_eq, beta_eq = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1] * 6, 0.98, 1.0
                e_abs = 5.0
            shape = GENERATING_SHAPES[i % len(GENERATING_SHAPES)]
            order = len(shape)
            generating = _scaled_multipliers(shape, e_abs)
            self.cases.append({
                "levels": levels, "degs": degs,
                "q_cut": q_cut, "beta_cut": beta_cut, "q_eq": q_eq, "beta_eq": beta_eq,
                "map_order": 2 + (5 * i) % 11, "order": order, "generating": generating,
            })

    def op(self, c):
        spectrum = qbg.make_spectrum(c["levels"], c["degs"])
        dist, log_z = qbg.q_distribution(spectrum, qbg.QParams(c["q_cut"], c["beta_cut"]))
        s_q = qbg.tsallis_entropy(dist, c["q_cut"])
        s_bg = qbg.bg_entropy(dist)
        params = qbg.QParams(c["q_eq"], c["beta_eq"])
        mapped = qbg.q_to_multipliers(params, c["map_order"])
        report = qbg.equivalence_report(spectrum, params, self.MAX_ORDER)
        gen_dist, _ = qbg.ext_distribution(spectrum, qbg.MultiplierVector(c["generating"]))
        moments = qbg.raw_moments(gen_dist, spectrum, c["order"])
        recovered, _ = qbg.solve_multipliers(spectrum, moments)
        return dist, log_z, s_q, s_bg, mapped, report, gen_dist, moments, recovered

    def _reference(self, c):
        """50-digit references for a case, computed on first use and kept
        (as floats; rounding them costs far less than any tolerance)."""
        if "reference" not in c:
            levels, degs = c["levels"], c["degs"]
            p_cut, log_z = oracle.mp_q_distribution(levels, degs, c["q_cut"], c["beta_cut"])
            exact, _ = oracle.mp_q_distribution(levels, degs, c["q_eq"], c["beta_eq"])
            p_max = float(max(exact))
            r = oracle.domain_ratio(levels, c["q_eq"], c["beta_eq"])
            distances, bounds, rounding = [], [], []
            for order in range(1, self.MAX_ORDER + 1):
                truncated, _ = oracle.mp_ext_distribution(
                    levels, degs, oracle.mp_multipliers(c["q_eq"], c["beta_eq"], order))
                distances.append(float(oracle.sup_distance(truncated, exact)))
                bounds.append(oracle.certified_bound(p_max, r, c["q_eq"], order))
                rounding.append(oracle.rounding_term(p_max, r, c["beta_eq"], levels, degs, order))
            p_gen, _ = oracle.mp_ext_distribution(levels, degs, c["generating"])
            c["reference"] = {
                "p_cut": [float(p) for p in p_cut], "log_z": float(log_z),
                "s_q": float(oracle.mp_tsallis_entropy(p_cut, c["q_cut"])),
                "s_bg": float(oracle.mp_gibbs_entropy(p_cut)),
                "mapped": [float(b) for b in oracle.mp_multipliers(c["q_eq"], c["beta_eq"],
                                                                   c["map_order"])],
                "distances": distances, "bounds": bounds, "rounding": rounding,
                "p_gen": [float(p) for p in p_gen],
                "moments": [float(m) for m in oracle.mp_raw_moments(p_gen, levels, c["order"])],
                "recovered": {},   # recovered multipliers -> their distribution
            }
        return c["reference"]

    def check(self, c, result):
        dist, log_z, s_q, s_bg, mapped, report, gen_dist, moments, recovered = result
        ref = self._reference(c)
        errs = []

        def rel(value, want):
            errs.append(abs(value - want) / (oracle.REL_TOL * max(1.0, abs(want))))

        def flag(ok):
            errs.append(0.0 if ok else 2.0)

        errs.append(oracle.sup_distance(dist.probs, ref["p_cut"]) / oracle.PROB_TOL)
        flag(all(p == 0 for p, want in zip(dist.probs, ref["p_cut"]) if want == 0))
        rel(log_z, ref["log_z"])
        rel(s_q, ref["s_q"])
        rel(s_bg, ref["s_bg"])
        flag(len(mapped.coeffs) == c["map_order"])
        errs.extend(abs(b - want) / (oracle.REL_TOL * abs(want))
                    for b, want in zip(mapped.coeffs, ref["mapped"]))
        flag(report.orders == tuple(range(1, self.MAX_ORDER + 1)))
        for d, want, bound, rounding in zip(report.sup_distances, ref["distances"],
                                            ref["bounds"], ref["rounding"]):
            errs.append(abs(d - want) / rounding)
            errs.append(d / (bound + rounding))
        errs.append(oracle.sup_distance(gen_dist.probs, ref["p_gen"]) / oracle.PROB_TOL)
        for value, want in zip(moments.values, ref["moments"]):
            rel(value, want)
        key = recovered.coeffs
        if key not in ref["recovered"]:
            p_rec, _ = oracle.mp_ext_distribution(c["levels"], c["degs"], key)
            ref["recovered"][key] = [float(p) for p in p_rec]
        errs.append(oracle.sup_distance(ref["recovered"][key], ref["p_gen"]) / oracle.SOLVE_TOL)
        return max(errs)


class SolveLarge:
    """One solve_multipliers round trip per op on a 1e5-level spectrum."""

    name = "solve-large"
    #: Normal solves take 5-15 iterations.  A solve that stalls above the
    #: tolerance (ROADMAP item 4) would run the default 200 iterations, about
    #: four minutes at this size; this budget makes it fail in about 30 s.
    OPTIONS = qbg.SolverOptions(max_iter=30)
    def __init__(self, seed, workdir=None):
        rng = np.random.default_rng(seed)
        self.levels, self.degs = _large_spectrum(rng)
        self.spectrum = qbg.make_spectrum(self.levels, self.degs)
        e = np.asarray(self.levels)
        e_abs = float(np.max(np.abs(e)))
        self.cases = []
        for shape in GENERATING_SHAPES:
            coeffs = _scaled_multipliers(shape, e_abs)
            p = oracle.np_ext_distribution(self.levels, self.degs, coeffs)
            targets = [float(p @ e ** n) for n in range(1, len(shape) + 1)]
            self.cases.append({"generating_p": p, "targets": qbg.MomentVector(targets)})

    def op(self, c):
        recovered, _ = qbg.solve_multipliers(self.spectrum, c["targets"], self.OPTIONS)
        return recovered

    def check(self, c, recovered):
        p = oracle.np_ext_distribution(self.levels, self.degs, recovered.coeffs)
        ref = c["generating_p"]
        return float(np.max(np.abs(p - ref))) / (oracle.SOLVE_REL_TOL * float(ref.max()))


class EquivLarge:
    """One equivalence_report(max_order=12) per op on a 1e5-level spectrum."""

    name = "equiv-large"
    MAX_ORDER = 12
    #: (1-q, beta): both sides of q = 1, two of them where |1-q| <= 1e-3;
    #: domain ratios 0.024..0.9.  The seed jitters each by 3%.
    SHAPES = ((0.05, 1.5), (-0.05, 2.25), (0.01, 7.5), (-0.01, 3.75),
              (1e-3, 3.0), (-1e-3, 3.0), (1e-6, 3.0), (-1e-6, 1.0))

    def __init__(self, seed, workdir=None):
        rng = np.random.default_rng(seed)
        self.levels, self.degs = _large_spectrum(rng)
        self.spectrum = qbg.make_spectrum(self.levels, self.degs)
        self.cases = []
        for one_minus_q, beta in self.SHAPES:
            jitter = rng.uniform(0.97, 1.03, 2)
            q = float(1.0 - one_minus_q * jitter[0])
            self.cases.append({"q": q, "beta": float(beta * jitter[1])})

    def op(self, c):
        return qbg.equivalence_report(self.spectrum, qbg.QParams(c["q"], c["beta"]),
                                      self.MAX_ORDER)

    def check(self, c, report):
        q, beta = c["q"], c["beta"]
        if "p_max" not in c:
            c["p_max"] = float(oracle.np_q_distribution(self.levels, self.degs, q, beta).max())
            c["r"] = oracle.domain_ratio(self.levels, q, beta)
        p_max, r = c["p_max"], c["r"]
        errs = [abs(report.domain_ratio - r) / (oracle.REL_TOL * r),
                0.0 if report.orders == tuple(range(1, self.MAX_ORDER + 1)) else 2.0]
        for order, d in zip(report.orders, report.sup_distances):
            rounding = oracle.rounding_term(p_max, r, beta, self.levels, self.degs, order)
            errs.append(d / (oracle.certified_bound(p_max, r, q, order) + rounding))
        return max(errs)


class CliSmall:
    """One ``python -m qbg <subcommand>`` process per op.

    The cases come from ``cli_cases.json``: a fixed pool of inputs with the
    report bytes the CLI printed for them at the commit that recorded the
    pool (see ``record_cli_cases.py``).  The seed picks the order in which
    the subcommands are cycled and which case of each subcommand runs.
    """

    name = "cli-small"
    OPS = 512

    def __init__(self, seed, workdir):
        with open(os.path.join(HERE, "cli_cases.json"), encoding="utf-8") as fh:
            pool = json.load(fh)["cases"]
        self.root = os.path.dirname(HERE)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.out_path = os.path.join(workdir, "report.csv")
        self.err_path = os.path.join(workdir, "stderr.txt")
        self.peak_child_rss_kb = 0
        by_sub = {}
        for case in pool:
            by_sub.setdefault(case["subcommand"], []).append(case)
            for fname, text in case["files"].items():
                with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                    fh.write(text)
        rng = random.Random(seed)
        subs = sorted(by_sub)
        self.cases = []
        while len(self.cases) < self.OPS:
            rng.shuffle(subs)
            for sub in subs:
                case = rng.choice(by_sub[sub])
                args = [a.replace("{dir}", workdir) for a in case["args"]]
                self.cases.append({"argv": [case["subcommand"], *args, "--out", self.out_path],
                                   "expected": case["expected"].encode("utf-8")})

    def _spawn(self, argv, case):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        with open(self.err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, *argv, *case["argv"]], cwd=self.root,
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def op(self, case):
        return self._spawn(["-m", "qbg"], case)

    def traced_op(self, case, spans_path):
        return self._spawn([os.path.join(HERE, "cli_child.py"), spans_path], case)

    def check(self, case, result):
        if result != 0:
            with open(self.err_path, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"qbg {case['argv'][0]} exited {result}: {fh.read()[-500:]}")
        with open(self.out_path, "rb") as fh:
            got = fh.read()
        want = case["expected"]
        if got == want:
            return 0.0
        return 1.0 + sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


WORKLOADS = {w.name: w for w in (CliSmall, LibSmall, SolveLarge, EquivLarge)}

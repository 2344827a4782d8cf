"""Per-call timings of qbg's main entry points, beside the ROADMAP item 1 table.

    python3 perfbench/percall.py

Times each call at n = 6, 1e3 and 1e5 levels (levels evenly spaced on
[0, 10], unit degeneracies, q = 0.98, beta = 1) as best and median of five,
plus ``import qbg`` and one ``python -m qbg map`` process, each in fresh
interpreters.  Prints a Markdown table; nothing is written.
"""

import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import qbg  # noqa: E402

REPEATS = 5
SIZES = (6, 1_000, 100_000)
#: ROADMAP item 1 baseline (best of 5, ms), in SIZES order.
ROADMAP_MS = {
    "make_spectrum": (0.006, 0.40, 41),
    "q_distribution": (0.11, 0.76, 67),
    "ext_distribution (order 3)": (0.11, 0.39, 33),
    "equivalence_report (max 12)": (1.7, 6.5, 547),
    "solve_multipliers (order 3)": (2.5, 7.4, 691),
}


def timed(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return min(samples) * 1e3, statistics.median(samples) * 1e3


def calls(n):
    levels = np.linspace(0.0, 10.0, n).tolist()
    degs = [1] * n
    spectrum = qbg.make_spectrum(levels, degs)
    params = qbg.QParams(0.98, 1.0)
    m3 = qbg.q_to_multipliers(params, 3)
    dist, _ = qbg.ext_distribution(spectrum, m3)
    targets = qbg.raw_moments(dist, spectrum, 3)
    iterations = qbg.solve_multipliers(spectrum, targets)[1].iterations
    return {
        "make_spectrum": lambda: qbg.make_spectrum(levels, degs),
        "q_distribution": lambda: qbg.q_distribution(spectrum, params),
        "ext_distribution (order 3)": lambda: qbg.ext_distribution(spectrum, m3),
        "equivalence_report (max 12)": lambda: qbg.equivalence_report(spectrum, params, 12),
        "solve_multipliers (order 3)": lambda: qbg.solve_multipliers(spectrum, targets),
    }, iterations


def process_ms(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return min(samples) * 1e3, statistics.median(samples) * 1e3


def main():
    rows = {name: [] for name in ROADMAP_MS}
    iterations = []
    for n in SIZES:
        fns, its = calls(n)
        iterations.append(its)
        for name, fn in fns.items():
            fn()   # warm-up
            rows[name].append(timed(fn))
    print("| path | " + " | ".join(f"n={n:g} best / median (ROADMAP)" for n in SIZES) + " |")
    print("|---|" + "---|" * len(SIZES))
    for name, cells in rows.items():
        print(f"| `{name}` | " + " | ".join(
            f"{best:.3g} / {med:.3g} ms ({ref:g})"
            for (best, med), ref in zip(cells, ROADMAP_MS[name])) + " |")
    print(f"\nsolve_multipliers iterations at n = {SIZES}: {iterations}")
    with_map = ["-m", "qbg", "map", "--q", "0.98", "--beta", "1", "--order", "4",
                "--out", os.devnull]
    for label, argv, ref in (("python -c 'import qbg'", ["-c", "import qbg"], "470"),
                             ("python -c 'pass'", ["-c", "pass"], "-"),
                             ("python -m qbg map", with_map, "650-680")):
        best, med = process_ms(argv)
        print(f"{label}: best {best:.0f} ms, median {med:.0f} ms (ROADMAP {ref} ms)")


if __name__ == "__main__":
    main()

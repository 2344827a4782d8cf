"""Record the cli-small case pool and the report bytes qbg prints for it.

Run from the repository root:

    python3 perfbench/record_cli_cases.py

It builds eight cases per subcommand from a fixed seed (spectra of 6..64
levels, orders <= 12), runs ``python -m qbg`` on each with the checkout's
``src`` on the path, refuses to write anything if a case fails, and writes
``perfbench/cli_cases.json``.  The expected bytes are the output of the
commit it ran on; re-record only at a commit whose reports are known good.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOL_SEED = 20070824
PER_SUBCOMMAND = 8

sys.path.insert(0, HERE)
import oracle  # noqa: E402


def _spectrum(rng):
    n = rng.randint(6, 64)
    e = rng.uniform(-1.0, 0.5)
    levels = []
    for _ in range(n):
        levels.append(e)
        e += rng.uniform(0.2, 1.0)
    degs = [rng.randint(1, 3) for _ in range(n)]
    text = "# energy,degeneracy\n" + "".join(f"{x!r},{g}\n" for x, g in zip(levels, degs))
    return levels, degs, text


def _multipliers_text(coeffs):
    return "".join(f"{n},{c!r}\n" for n, c in enumerate(coeffs, start=1))


def _scaled(rng, order, e_abs):
    return [rng.uniform(0.3, 2.0) * rng.choice((-1, 1)) / e_abs ** n
            for n in range(1, order + 1)]


def _q_beta_in_domain(rng, e_abs):
    one_minus_q = rng.choice((-1, 1)) * 10 ** rng.uniform(-3.0, -1.0)
    beta = min(rng.uniform(0.2, 0.85) / (abs(one_minus_q) * e_abs), 40.0 / e_abs)
    return 1.0 - one_minus_q, beta


def build_cases(rng):
    cases = []

    def add(sub, i, args, files=None):
        cases.append({"id": f"{sub}-{i}", "subcommand": sub, "args": args,
                      "files": files or {}})

    for i in range(PER_SUBCOMMAND):
        levels, degs, spec = _spectrum(rng)
        sfile = f"dist-q-{i}.spec"
        q = rng.uniform(0.5, 1.5)
        if q < 1 and i % 2:
            beta = rng.uniform(1.2, 3.0) / ((1 - q) * levels[-1])   # top levels cut off
        else:
            beta = rng.uniform(0.1, 2.0)
        add("dist-q", i, ["--spectrum", "{dir}/" + sfile, "--q", repr(q), "--beta", repr(beta)],
            {sfile: spec})

        levels, degs, spec = _spectrum(rng)
        e_abs = max(abs(levels[0]), abs(levels[-1]))
        sfile, mfile = f"dist-ext-{i}.spec", f"dist-ext-{i}.mult"
        add("dist-ext", i, ["--spectrum", "{dir}/" + sfile, "--multipliers", "{dir}/" + mfile],
            {sfile: spec, mfile: _multipliers_text(_scaled(rng, rng.randint(1, 6), e_abs))})

        add("map", i, ["--q", repr(rng.uniform(0.5, 1.5)), "--beta", repr(rng.uniform(0.1, 3.0)),
                       "--order", str(rng.randint(1, 12))])

        q, beta = rng.uniform(0.5, 1.5), rng.uniform(0.1, 3.0)
        coeffs = [(1 - q) ** (n - 1) * beta ** n / n for n in range(1, rng.randint(2, 8) + 1)]
        if i % 2:
            coeffs[-1] *= 1.0 + 1e-6   # outside the tolerance: reported as unmatched
        mfile = f"invert-map-{i}.mult"
        add("invert-map", i, ["--multipliers", "{dir}/" + mfile, "--tol", "1e-09"],
            {mfile: _multipliers_text(coeffs)})

        add("clayton", i, ["--beta", repr(rng.uniform(0.1, 3.0)),
                           "--delta", repr(rng.uniform(-0.1, 0.1))])

        levels, degs, spec = _spectrum(rng)
        e_abs = max(abs(levels[0]), abs(levels[-1]))
        q, beta = _q_beta_in_domain(rng, e_abs)
        sfile = f"equiv-{i}.spec"
        add("equiv", i, ["--spectrum", "{dir}/" + sfile, "--q", repr(q), "--beta", repr(beta),
                         "--max-order", str(rng.randint(1, 12))], {sfile: spec})

        levels, degs, spec = _spectrum(rng)
        e_abs = max(abs(levels[0]), abs(levels[-1]))
        order = rng.randint(2, 4)
        probs, _ = oracle.mp_ext_distribution(levels, degs, _scaled(rng, order, e_abs))
        targets = ",".join(repr(float(m)) for m in oracle.mp_raw_moments(probs, levels, order))
        sfile = f"solve-{i}.spec"
        add("solve", i, ["--spectrum", "{dir}/" + sfile, "--targets", targets], {sfile: spec})

        levels, degs, spec = _spectrum(rng)
        e_abs = max(abs(levels[0]), abs(levels[-1]))
        sfile = f"entropy-{i}.spec"
        if i % 2:
            mfile = f"entropy-{i}.mult"
            add("entropy", i, ["--spectrum", "{dir}/" + sfile, "--multipliers", "{dir}/" + mfile],
                {sfile: spec, mfile: _multipliers_text(_scaled(rng, rng.randint(1, 4), e_abs))})
        else:
            q, beta = _q_beta_in_domain(rng, e_abs)
            add("entropy", i, ["--spectrum", "{dir}/" + sfile, "--q", repr(q),
                               "--beta", repr(beta)], {sfile: spec})
    return cases


def main():
    cases = build_cases(random.Random(POOL_SEED))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(dir=ROOT) as work:
        out = os.path.join(work, "report.csv")
        for case in cases:
            for fname, text in case["files"].items():
                with open(os.path.join(work, fname), "w", encoding="utf-8") as fh:
                    fh.write(text)
            args = [a.replace("{dir}", work) for a in case["args"]]
            proc = subprocess.run([sys.executable, "-m", "qbg", case["subcommand"], *args,
                                   "--out", out], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=120)
            if proc.returncode != 0:
                sys.exit(f"case {case['id']} failed: {proc.stderr.strip()}")
            with open(out, encoding="utf-8", newline="") as fh:
                case["expected"] = fh.read()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    path = os.path.join(HERE, "cli_cases.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"recorded_at": commit, "pool_seed": POOL_SEED, "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {path}")


if __name__ == "__main__":
    main()

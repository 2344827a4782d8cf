"""Import cost of qbg and its dependencies from ``python -X importtime``.

Each sample is one fresh interpreter running ``import qbg``.  The report is
a tree printed children-first; every module imported while some qbg module
was loading is charged to the top-level package of the first non-qbg module
on its path from ``qbg`` (so stdlib modules pulled in by numpy count as
numpy).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

PACKAGES = ("qbg", "numpy", "scipy")


def parse(stderr: str) -> dict:
    """Milliseconds for ``qbg`` (cumulative) and for each dependency package."""
    pending = []   # (depth, name, cumulative_us, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue   # the column header
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name_field.strip(), int(cumulative), children))
    roots = [node for node in pending if node[1] == "qbg"]
    if not roots:
        raise ValueError("no 'qbg' entry in the -X importtime output")
    out = dict.fromkeys(PACKAGES, 0.0)
    out["qbg"] = roots[0][2] / 1e3

    def charge(node):
        _, name, cumulative, children = node
        top = name.split(".", 1)[0]
        if top == "qbg":
            for child in children:
                charge(child)
        elif top in out:
            out[top] += cumulative / 1e3

    charge(roots[0])
    return out


def profile(root, samples: int) -> dict:
    """Median and quartile spread of each package's import time, in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qbg"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import qbg failed: {proc.stderr[-2000:]}")
        runs.append(parse(proc.stderr))
    out = {}
    for pkg in PACKAGES:
        values = [run[pkg] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[f"import.{pkg}_ms"] = statistics.median(values)
        out[f"import.{pkg}_iqr_ms"] = q3 - q1
    return out

"""qbg benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; qbg is imported from its ``src``.  The
workloads are defined in ``workloads.py`` and listed, with their metrics,
in ``BENCHMARK.json`` at the root.

With ``--trace 0`` the run times operations for ``--seconds`` with tracing
off and reports the end-to-end metrics.  With ``--trace 1`` it spends half
the time untraced and half with spans around every call into qbg, and
reports the per-layer metrics, including the tracing overhead between the
two halves and the ``-X importtime`` profile of ``import qbg``.  Every
operation's output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
#: The tail percentile needs ten samples beyond it.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
#: Past this multiple of --seconds no op starts, even short of MIN_OPS.
DEADLINE = 2.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts():
    import numpy
    import scipy

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor(),
             "caches": {}, "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "blas_threads": blas_threads()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for entry in sorted(os.listdir(cache_dir)):
            path = os.path.join(cache_dir, entry)
            if entry.startswith("index"):
                level, kind, size = (open(os.path.join(path, f), encoding="utf-8").read().strip()
                                     for f in ("level", "type", "size"))
                facts["caches"][f"L{level}{kind[0].lower()}"] = size
    return facts


def setup_seconds(name, seed, workdir):
    """Median set-up time over fresh interpreters (see probe_setup.py)."""
    samples = []
    for k in range(SETUP_SAMPLES):
        probe_dir = os.path.join(workdir, f"probe{k}")
        os.makedirs(probe_dir)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe_setup.py"), name, str(seed), probe_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        shutil.rmtree(probe_dir)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Phase:
    """Timings and verdicts of one measured stretch of operations."""

    def __init__(self):
        self.times = []       # seconds, operations that passed their check
        self.attempted = 0
        self.failed = 0       # raised, or failed the check
        self.wrong = 0        # of those, failed the check
        self.max_err = 0.0

    def fail(self, what, wrong):
        self.failed += 1
        self.wrong += wrong
        if self.failed <= 3:
            print(f"operation {self.attempted} failed: {what}", file=sys.stderr)


def measure(wl, seconds, op):
    """Closed loop: run ``op`` over the workload's cases for ``seconds``
    (and at least MIN_OPS times unless DEADLINE passes), checking each result
    outside the timing."""
    phase = Phase()
    op(wl.cases[-1])   # warm-up, not counted
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (phase.attempted >= MIN_OPS or elapsed >= DEADLINE * seconds):
            break
        case = wl.cases[phase.attempted % len(wl.cases)]
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op(case)
        except Exception:
            phase.fail(traceback.format_exc(), wrong=False)
            continue
        dt = time.perf_counter() - t0
        try:
            err = wl.check(case, result)
        except Exception:
            phase.fail(traceback.format_exc(), wrong=True)
            continue
        phase.max_err = max(phase.max_err, err)
        if err <= 1.0:
            phase.times.append(dt)
        else:
            phase.fail(f"deviation {err:.3g} x tolerance", wrong=True)
    return phase


def latency(times):
    """Median, tail and the tail's percentile, in ms."""
    if not times:
        raise RuntimeError("no operation passed its check")
    ordered = sorted(t * 1e3 for t in times)
    n = len(ordered)
    k = max(1, n - TAIL_BEYOND)
    return statistics.median(ordered), ordered[k - 1], 100.0 * k / n


def end_to_end(name, seed, seconds, wl, workdir):
    setup = setup_seconds(name, seed, workdir)
    phase = measure(wl, seconds, wl.op)
    p50, tail, pct = latency(phase.times)
    if name == "cli-small":
        peak_kb = wl.peak_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": len(phase.times) / sum(phase.times),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "setup_s": setup,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    print(f"{name}: {len(phase.times)} timed ops; op_tail_ms is p{pct:.1f}; "
          f"error_rate={phase.failed / phase.attempted:.6g} "
          f"({phase.failed}/{phase.attempted}); check.max_err={phase.max_err:.3g}")
    return phase, metrics


def traced(name, seed, seconds, wl, workdir):
    import importprof
    import spans
    import workloads

    base = measure(wl, seconds / 2, wl.op)
    recorder = spans.Recorder()
    op_walls = None
    recorder.install()
    try:
        workloads.WORKLOADS[name](seed, workdir)   # traces the set-up's make_spectrum
        counter = itertools.count()
        if name == "cli-small":
            op_walls = {}
            spans_path = os.path.join(workdir, "spans.json")

            def timed_op(case):
                t0 = time.perf_counter()
                result = wl.traced_op(case, spans_path)
                op_id = next(counter)
                op_walls[op_id] = time.perf_counter() - t0
                if os.path.exists(spans_path):
                    with open(spans_path, encoding="utf-8") as fh:
                        child = json.load(fh)
                    os.remove(spans_path)
                    offset = len(recorder.spans)
                    for rec in child:
                        rec[3] = None if rec[3] is None else rec[3] + offset
                        rec[4] = op_id
                    recorder.spans.extend(child)
                return result
        else:
            def timed_op(case):
                recorder.op = next(counter)
                with recorder.span("op"):
                    return wl.op(case)

        run = measure(wl, seconds / 2, timed_op)
    finally:
        recorder.uninstall()
    if op_walls is not None:
        del op_walls[0]   # the warm-up
    base_p50, _, _ = latency(base.times)
    traced_p50, _, _ = latency(run.times)
    metrics = spans.layer_metrics(recorder.spans, op_walls, skip={0})
    metrics.update(importprof.profile(ROOT, IMPORT_SAMPLES))
    metrics.update({
        "check.max_err": max(base.max_err, run.max_err),
        "trace.op_p50_ms": traced_p50,
        "trace.base_op_p50_ms": base_p50,
        "trace.overhead_pct": 100.0 * (traced_p50 - base_p50) / base_p50,
        "env.blas_threads": blas_threads() or 0,
    })
    combined = Phase()
    for phase in (base, run):
        combined.attempted += phase.attempted
        combined.failed += phase.failed
        combined.wrong += phase.wrong
    print(f"{name} traced: {len(run.times)} traced ops, {len(base.times)} untraced; "
          f"error_rate={combined.failed / combined.attempted:.6g}")
    return combined, metrics


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qbg", "__init__.py")):
        print(f"no qbg sources under {SRC}; run from the root of a qbg checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import qbg
    import workloads

    if not os.path.abspath(qbg.__file__).startswith(SRC + os.sep):
        print(f"qbg was imported from {qbg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    print("machine " + json.dumps(machine_facts(), sort_keys=True))

    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = traced if args.trace else end_to_end
        phase, metrics = run(args.workload, args.seed, args.seconds, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

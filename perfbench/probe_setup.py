"""One set-up sample in a fresh interpreter; prints its duration in seconds.

    python3 perfbench/probe_setup.py <workload> <seed> <workdir>

The sample is the time to ``import qbg`` (with numpy and scipy) plus the
time to build the workload's inputs.  Importing the benchmark's own modules
is not counted.
"""

import os
import sys
import time

start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import qbg  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402

built = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
done = time.perf_counter()
print(repr((imported - start) + (done - built)))

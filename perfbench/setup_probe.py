"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZES

Imports weylinv from the checkout's src/ and builds the first problem,
contour and config of the workload, then prints the elapsed seconds.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import weylinv  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]),
                       workloads.SIZES[sys.argv[3]])
print(time.perf_counter() - T0)

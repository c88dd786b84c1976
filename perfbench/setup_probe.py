"""One set-up sample: import the package and build a workload's inputs.

``run.py`` starts this in a fresh interpreter and reads the
``time.monotonic()`` it prints once the inputs are ready; the clock is
system-wide, so the difference to the parent's reading taken just before
the start is the set-up time from process start.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(time.monotonic())

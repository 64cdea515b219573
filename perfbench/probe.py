"""Speed probe: times a fixed pure-Python kernel every 10 ms on its CPU.

    python3 perfbench/probe.py

The harness starts it on the program's CPU for the whole measured part of
a run.  It prints ``ready`` once warm, then runs the kernel every
``PERIOD_S`` until a line (or end of file) arrives on standard input, and
prints one JSON list of ``[start, seconds]`` pairs on the monotonic clock.

On a shared virtual machine the same instructions take up to twice as long
when other tenants load the physical core, and that load changes within
seconds.  The kernel never changes, so its time at a moment, divided by its
fastest time in the run, is how much the machine was slowing any Python
code on that CPU at that moment.  At ~0.3 ms every 10 ms it takes ~3% of
the CPU it measures.
"""

from __future__ import annotations

import json
import select
import sys
import time

PERIOD_S = 0.010
WARMUP = 50

LINES = [
    json.dumps({"case": f"c{i % 70}", "activity": f"a{i % 37}", "timestamp": i})
    for i in range(150)
]


def kernel() -> float:
    """Parse and count the fixed lines; return the seconds it took."""
    start = time.monotonic()
    counts: dict[tuple[str, str], int] = {}
    for line in LINES:
        obj = json.loads(line)
        key = (obj["case"], obj["activity"])
        counts[key] = counts.get(key, 0) + 1
    return time.monotonic() - start


def main() -> int:
    for _ in range(WARMUP):
        kernel()
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.monotonic()
        samples.append((start, kernel()))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())

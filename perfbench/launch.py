"""Run ``python -m coverwin.cli ARGS...`` and record the process's own peak RSS.

    python3 perfbench/launch.py PEAK_FILE ARGS...

At exit the process writes its ``VmHWM`` (KiB) to PEAK_FILE.  The
``ru_maxrss`` that ``wait4`` reports cannot be used: Linux folds into it
the parent's memory image, which the child holds between fork and exec,
and the harness's image is as large as the program's.
"""

from __future__ import annotations

import atexit
import os
import runpy
import sys


def record_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fp:
        peak = next(line.split()[1] for line in fp if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(peak + "\n")


def main() -> None:
    atexit.register(record_peak, sys.argv[1])
    del sys.argv[1]
    # the module search path ``python -m`` would have: the working directory
    # first, not this file's directory
    sys.path[0] = os.getcwd()
    runpy.run_module("coverwin.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()

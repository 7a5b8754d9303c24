"""Times a fixed reference computation on one CPU at a time.

Started by worker.py as a helper process, so that the reference's arrays do
not count in the worker's peak RSS.  Each line on stdin names a CPU; the
helper pins itself to it, times the reference, and prints the seconds.

The reference is the geometric mean of two kernels, each the fastest of
REPEATS: an interpreter-bound pure-Python loop, and a numpy kernel that
streams arrays larger than the caches.  The workloads mix both kinds of work,
and the two kernels slow by different amounts in the host's speed phases.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np

REPEATS = 3
LOOP_N = 100_000
STREAM_N = 1 << 21   # 16 MiB of float64 per array


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP_N):
        s += i * i
    return time.perf_counter() - t0


def _stream(a: np.ndarray, b: np.ndarray) -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        np.multiply(a, 1.0001, out=b)
    return time.perf_counter() - t0


def reference_s(a: np.ndarray, b: np.ndarray) -> float:
    loop = min(_loop() for _ in range(REPEATS))
    stream = min(_stream(a, b) for _ in range(REPEATS))
    return math.sqrt(loop * stream)


def main() -> int:
    a = np.ones(STREAM_N)
    b = np.empty_like(a)
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        print(repr(reference_s(a, b)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host speed, measured beside the workload, to scale timings by.

The shared hosts this benchmark runs on change speed by up to half from
one minute to the next, and every timing of a run moves with them.  Each
benchmark process therefore runs a fixed kernel, outside the timed
region, after its cold op and after every pass.  ``run.py`` multiplies
the end-to-end timings a process took by that process's :func:`factor`:
the timings then read as seconds on a host where one kernel takes
:data:`REFERENCE_S`.

The kernel shares no code with the program, so a change to the program
moves the timings and leaves the factor alone.  It mixes the two kinds of
work the compiler does: interpreter work (integer arithmetic, dict and
list updates, small function calls, no container allocation, so the
garbage collector never runs inside it) and numpy passes over arrays
larger than a core's L2 cache.  Against the compile's op times on a
2-CPU VM (log against log, 50-op windows), an interpreter loop alone
moved at a slope of 0.75 and numpy passes alone at 1.8; this kernel
moved at 0.84 against ``atomique-large`` ops and 1.55 against
``arch-grid`` ops, with correlations 0.84 and 0.97.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: kernel seconds on the reference host; timings are scaled to this speed
REFERENCE_S = 0.03
#: interpreter loop iterations (13-20 ms on a shared 2-CPU Xeon VM)
ITERATIONS = 50_000
#: float64 elements per array: two arrays of 4 MiB, past a 2 MiB L2
ARRAY_LENGTH = 1 << 19
#: numpy passes over the arrays (8-12 ms on the same VM)
ARRAY_PASSES = 10
#: seconds of pass time per kernel run measured after a pass
PASS_SECONDS_PER_SAMPLE = 1.0


def _step(table: dict, key: int, value: int) -> int:
    table[key] = table.get(key, 0) + value
    return value ^ (key << 1)


def kernel() -> float:
    """Run the kernel once; its wall time in seconds."""
    table: dict = {}
    ring = [0] * 64
    acc = 1
    t0 = time.perf_counter()
    for i in range(ITERATIONS):
        key = i & 255
        acc = (acc * 31 + _step(table, key, i)) & 0xFFFFFF
        ring[i & 63] = acc
    seconds = time.perf_counter() - t0
    # Allocated per run and filled before the clock starts, so the kernel
    # adds nothing to the process's resident set between runs and its
    # time holds no page faults.
    a = np.ones(ARRAY_LENGTH)
    b = np.ones(ARRAY_LENGTH)
    t0 = time.perf_counter()
    for _ in range(ARRAY_PASSES):
        np.multiply(a, 1.0001, out=b)
        np.add(a, b, out=b)
        b.sum()
    return seconds + time.perf_counter() - t0


def sample(count: int) -> list[float]:
    """*count* kernel times, back to back, taking the CPUs this process
    may use in turn: on a VM each virtual CPU changes speed on its own,
    and a workload of several processes runs on all of them."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for i in range(count):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            times.append(kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def factor(times: list[float]) -> float:
    """Scale from wall times taken beside kernel *times* to the reference
    host speed.  The kernel times cluster by CPU, and a median can fall
    in the gap between two clusters and jump with noise; the mean of the
    middle half moves smoothly instead."""
    xs = sorted(times)
    quarter = len(xs) // 4
    return REFERENCE_S / statistics.mean(xs[quarter:len(xs) - quarter])


def after_pass(pass_s: float) -> list[float]:
    """Kernel times for after a pass of *pass_s* seconds: one per
    :data:`PASS_SECONDS_PER_SAMPLE` of it, at least two."""
    return sample(max(2, round(pass_s / PASS_SECONDS_PER_SAMPLE)))

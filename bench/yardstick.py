"""A fixed reference computation that gauges the machine's current speed.

On a shared machine other tenants slow the CPUs by 30% or more, in phases
of seconds and in drifts over minutes to hours (seen on a 2-vCPU KVM
guest: this computation took 22 ms in one hour and 35 ms in the next), so
a run's raw times depend on when it ran.  The benchmark runs the yardstick
right before every timed op and reports the op's wall time divided by it.
It mixes the three kinds of work the workloads do: Python-level integer
formatting, uint64 mixing over a numpy array, and broadcast products over
a K^N tensor.  It uses numpy and the standard library only, never depcat,
so no change to the package can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_MULT = np.uint64(0xBF58476D1CE4E5B9)
_SHIFT = np.uint64(29)


def yardstick_s() -> float:
    """Seconds one pass of the reference computation takes right now."""
    start = perf_counter()
    rows = (np.arange(4000 * 16, dtype=np.int64).reshape(4000, 16) * 7919) % 3 + 1
    "\n".join(",".join(str(int(v)) for v in row) for row in rows)
    words = np.arange(1 << 18, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for _ in range(6):
            words = (words ^ (words >> _SHIFT)) * _MULT
    joint = np.ones((3,) * 10)
    step = np.full((3, 3), 0.3)
    for axis in range(1, 10):
        shape = [1] * 10
        shape[axis - 1] = shape[axis] = 3
        joint *= step.reshape(shape)
    joint.sum(axis=tuple(range(1, 10)))
    return perf_counter() - start

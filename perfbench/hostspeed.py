"""Host-speed reference for the timing metrics.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to 1.7x, in phases that last from a second to minutes, as other tenants come
and go; the whole process slows, CPU time as much as wall time.  A fixed piece of work of the same kind as
the library's (interpreted int arithmetic mod p, short numpy int64 vectors,
convolutions) is timed right before and after every measured call, and the
call's time is scaled by NOMINAL_S over the mean of the two.  The result
reads as milliseconds on a host where the reference takes NOMINAL_S; it
moves with the library's cost and not with the host's phase.  The reference
never calls the library, so no change to the library changes it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.020  # about the reference's time on a 2-vCPU Xeon (10-21 ms seen)
_P = 16777213


def reference() -> float:
    """Seconds the fixed reference work takes now."""
    t0 = perf_counter()
    s = 1
    vals = []
    for i in range(1, 40000):
        s = (s * i + 7) % _P
        vals.append(s)
    v = np.array(vals[:384], dtype=np.int64)
    w = v[::-1].copy()
    for k in range(600):
        v = (v + k * w) % _P
        w = np.convolve(v[:64], w[:64])[:384] % _P
        if w.shape[0] < 384:
            w = np.concatenate([w, v[w.shape[0]:]])
    return perf_counter() - t0


class Scale:
    """Scales measured intervals by the reference timed around them.

    The reference is timed once at the start and once after every interval,
    so the reference after one interval is the one before the next.  The
    host's phases change within seconds; the two readings around a call
    sample the phases it ran in, and over a run their mean follows the
    host's average speed.
    """

    def __init__(self):
        self.refs = [reference()]

    def mark(self) -> int:
        """Time the reference after an interval; returns its index."""
        self.refs.append(reference())
        return len(self.refs) - 1

    def adjust(self, seconds: float, mark: int) -> float:
        around = (self.refs[mark - 1] + self.refs[mark]) / 2.0
        return seconds * NOMINAL_S / around

"""Host speed, measured by a fixed reference kernel run around each request.

A shared host's speed drifts by up to a factor of two within minutes, so
raw times from two runs of the same code disagree by more than any useful
bound.  The runner times `reference_kernel` just before and just after
every request, and every set-up probe, and scales the measured time by
REFERENCE_S over the mean of the two, which gives it at a fixed reference
speed.

The kernel is an interpreted scalar loop.  Kernels of short numpy vector
operations, a memory-bound array sweep and a LAPACK factorisation were
tried too, alone and mixed with it; the loop alone left the smallest
run-to-run spread in the scaled metrics of the three workloads taken
together.  Requests dominated by LAPACK or memory traffic slow down less
than the loop does when the host slows, so their scaled times are
over-corrected, but by less than their raw times drift.  The kernel never
touches the library, so a change to the library moves scaled times by
exactly its own effect.
"""

from __future__ import annotations

import time

# the kernel's time at reference speed; the scale of every scaled time
REFERENCE_S = 0.010


def reference_kernel() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    s = 0.0
    for i in range(60000):
        s += (i * 0.5) % 7.0
    return time.perf_counter() - start


def scale(seconds: float, reference_s: float) -> float:
    """seconds measured while the kernel took reference_s, at reference speed."""
    return seconds * REFERENCE_S / reference_s

"""Host-speed calibration: a fixed kernel timed between measurements.

On a shared host the speed of the machine drifts by tens of percent over
seconds to minutes (other tenants, frequency changes), and every timing
drifts with it — CPU time as much as wall time. The kernel below does
fixed work, so its time tracks that drift. The benchmark times it around
every measured repetition and every set-up, and rescales each host time
to a reference host that runs the kernel in :data:`REFERENCE_S` seconds.

The kernel mixes interpreter work with short calls into C (``struct``,
``hashlib``), the instruction mix of the hardware track's fault
decisions. Of the kernels tried (a pure integer loop, a NumPy loop, this
one, and a mix of the three) it tracked the drift of the four workloads
best on average.
"""

from __future__ import annotations

import hashlib
import statistics
import struct
import time

#: loop iterations of one kernel call
ITERATIONS = 20_000
#: the kernel's time on the reference host (about what a quiet 2-core
#: x86-64 VM under CPython 3.11 takes)
REFERENCE_S = 0.015


def kernel_s() -> float:
    """Seconds one fixed run of the kernel takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        digest = hashlib.blake2b(struct.pack("<qq", 7, i), digest_size=8).digest()
        acc = (acc * 31 + int.from_bytes(digest, "little")) & 0xFFFFFFFF
    return time.perf_counter() - start


def probe(calls: int = 3) -> float:
    """Median of a few kernel calls: the host's current kernel time."""
    return statistics.median(kernel_s() for _ in range(calls))


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, rescaled to the reference host."""
    return seconds * REFERENCE_S / ((before + after) / 2)

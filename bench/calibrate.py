"""A fixed calibration kernel that measures how fast the machine runs now.

The benchmark shares its machine with other work, and the speed of one
core has been seen to change by 1.5-2x over tens of seconds while nothing
in the benchmark changed.  The kernel runs before the first timed call
and after every timed call; its time, against ``REFERENCE_S``, gives the
machine's speed around each call.  It is benchmark code and never changes
with the program under test.  It does the kinds of work the program does:
an element-wise walk over a NumPy integer array, frozen-dataclass
attribute reads, float formatting with ``repr``, JSON and SHA-256 of a
small payload, and a NumPy search and sort.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass

import numpy as np

# a fixed scale, so that speed-normalized times read in seconds; the
# kernel ran in about 1.2 ms on a shared 2-core Intel Xeon machine
# (Python 3.11, NumPy 2.4)
REFERENCE_S = 0.001


@dataclass(frozen=True)
class _Gate:
    width: int
    scale: float


_GATE = _Gate(width=3, scale=0.5)
_ARRIVALS = (np.arange(1500, dtype=np.int64) * 7919) % 100_003
_VALUES = [random.Random(i).random() for i in range(200)]
_SORTED = np.sort((np.arange(4096) * 0.7548776662) % 1.0)
_KEYS = (np.arange(4096) * 0.6180339887) % 1.0


def kernel() -> int:
    busy, accepted = -1, 0
    for a in _ARRIVALS:
        if a >= busy:
            busy = a + _GATE.width
            accepted += 1
    rows = [f"{v!r},{i},{v * _GATE.scale!r}" for i, v in enumerate(_VALUES)]
    digest = hashlib.sha256(json.dumps({"rows": rows[:20], "n": accepted}, sort_keys=True).encode())
    found = np.searchsorted(_SORTED, _KEYS)
    return accepted + len(digest.hexdigest()) + int(found[-1]) + int(np.argsort(_KEYS)[0])


def timed_kernel() -> float:
    """Wall time of one kernel run, seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed(kernel_s: float) -> float:
    """Factor that scales a wall time measured next to a kernel run of
    ``kernel_s`` to the reference speed."""
    return REFERENCE_S / kernel_s

"""Host calibration kernel and host-normalized timing.

The kernel is a fixed, deterministic, pure-Python workload of the same kind
as the analysis it calibrates: small-object allocation, attribute access,
dict/set/tuple hashing, string building and sorting, all in the interpreter.
It imports nothing from ``repro``, so no change to the program under test can
change the kernel.

Every timed op runs next to a kernel run.  An op's wall time divided by the
adjacent kernel time and multiplied by :data:`REFERENCE_MS` reads as "time at
reference host speed": a host that runs Python 20% slower for a while makes
both the op and the kernel 20% slower, and the ratio stays put.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: kernel wall time (ms) on the reference host: 2 CPUs, Python 3.11, the
#: host the committed bounds were measured on.  Normalized timings are
#: expressed at this speed; changing it rescales every timing metric.
REFERENCE_MS = 2.5

#: kernel samples on each side of an op that enter its normalizer.
WINDOW = 2


class _Cell:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key, weight, next_cell):
        self.key = key
        self.weight = weight
        self.next = next_cell


def kernel(rounds: int = 6) -> int:
    """The calibration workload; returns a checksum so nothing is elided."""
    checksum = 0
    for r in range(rounds):
        table = {}
        seen = set()
        head = None
        for i in range(300):
            key = (i % 37, i % 11, r)
            head = _Cell(key, i * 7 % 101, head)
            table[key] = table.get(key, 0) + head.weight
            seen.add(key[0] * 64 + key[1])
        names = [f"v{k[0]}_{k[1]}" for k in table]
        names.sort(key=lambda name: (len(name), name))
        cell = head
        while cell is not None:
            checksum = (checksum * 31 + cell.weight + len(cell.key)) & 0xFFFFFFFF
            cell = cell.next
        checksum ^= len(seen) + len("".join(names[:20]))
    return checksum


def kernel_ms() -> float:
    """One timed kernel run, in milliseconds."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1000.0


def normalizer(kernels: Sequence[float], index: int) -> float:
    """The kernel time adjacent to sample ``index`` (ms).

    ``kernels[index]`` ran just before the op and ``kernels[index + 1]`` just
    after; the median over a small window around them damps one-off kernel
    hiccups without following slow drifts any less closely.
    """
    low = max(0, index - WINDOW + 1)
    high = min(len(kernels), index + WINDOW + 1)
    return statistics.median(kernels[low:high])


def calibrated(fn, kernels: List[float]):
    """Run ``fn`` between two kernel runs (appended to ``kernels``).

    Returns ``(result, raw seconds, factor)``; ``raw * factor`` is the
    normalized time.  The factor also normalizes a time ``fn`` measured
    itself, such as a start-up time reported by a child process.
    """
    kernels.append(kernel_ms())
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    kernels.append(kernel_ms())
    return result, raw, REFERENCE_MS / statistics.mean(kernels[-2:])

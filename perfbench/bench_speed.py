"""Speed index of the host, measured between calls.

The host's speed drifts: on a shared 2-vCPU VM (Intel Xeon) the same pass
of calls took anywhere from 210 ms to 510 ms within one minute, in phases
lasting seconds, so medians of raw times moved by 20-35% between runs.
A fixed reference kernel, timed every REF_GAP_NS of work, slows down with
the host; scaling each call's time by REF_NOMINAL_NS / (kernel time around
it) cancels most of the drift (the spread of pass times fell from 24% to
4% in the same minute).

The kernel mixes the work kronmul does: a Python loop over word-sized
ints, a byte-blit and a big-integer product.  It depends only on this
file, never on kronmul or the seed, so a change to the library cannot
move it.
"""

from __future__ import annotations

import random
import time

# Work between two kernel timings, and the kernel time that counts as
# nominal speed (about its time on the host above when it runs fast).
REF_GAP_NS = 50_000_000
REF_NOMINAL_NS = 1_400_000

_rng = random.Random(0x0712_4046)
_WORDS = tuple(_rng.getrandbits(48) for _ in range(1024))
_X = _rng.getrandbits(64 * 512)
_Y = _rng.getrandbits(64 * 512)


def kernel_ns() -> int:
    """Time of one run of the reference kernel."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i, c in enumerate(_WORDS):
        acc |= c << (i * 100)
    acc.to_bytes((acc.bit_length() + 7) // 8, "little")
    _X * _Y
    return time.perf_counter_ns() - t0


class SpeedIndex:
    """Scales times measured between kernel runs to nominal speed."""

    def __init__(self):
        self._last_ref = kernel_ns()
        self._last_at = time.perf_counter_ns()
        self.factors: list[float] = []

    def due(self, now_ns: int) -> bool:
        return now_ns - self._last_at >= REF_GAP_NS

    def factor(self) -> float:
        """Run the kernel; the factor for the work since the last run."""
        ref = kernel_ns()
        factor = 2 * REF_NOMINAL_NS / (self._last_ref + ref)
        self._last_ref = ref
        self._last_at = time.perf_counter_ns()
        self.factors.append(factor)
        return factor

"""The machine's speed, measured by a fixed reference loop that runs between
operations, and the scale that turns measured times into reference times.

The benchmark runs on a shared host whose speed drifts: the same operations
on the same inputs can take up to twice as long in one minute as in the
next, which no choice of inputs or run length can average away.  So a fixed slice of
pure-Python work runs between operations, for about a tenth of the run:
small-denominator `Fraction` arithmetic and dict updates, like the program's
hot paths, but none of the program's code.  Each timing is scaled by
NOMINAL_S / (mean slice time around it): it is reported as it would read on
a machine that runs the slice in NOMINAL_S.  A change to the program moves
the scaled times as much as the raw ones; a change in the host's speed moves
the slice about as much as the operations and mostly cancels out.  The raw times are kept
in the provenance.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0025  # about one slice on an idle 2-core VM
SHARE = 0.1  # slice time per unit of operation time
BURST = 10  # slices run back to back, after one that warms the caches up
HALF_WIDTH_S = 1.5  # an operation is scaled by the slices within this of its midpoint
REPS = 6  # passes over _XS in one slice

_XS = tuple(Fraction(i % 20, 20) for i in range(64))


def _work():
    total = Fraction(0)
    seen: dict = {}
    for r in range(REPS):
        for i, x in enumerate(_XS):
            y = x * _XS[(i * 7 + r) % 64] - _XS[(i + r) % 64]
            total += abs(y)
            seen[i, y] = seen.get((i, y), 0) + 1
    return total, len(seen)


class Speed:
    """The slices of one run: when each ended and how long it took."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._cum = [0.0]  # prefix sums of took
        self.spent = 0.0  # in all slices, the unrecorded ones too

    @staticmethod
    def _timed() -> float:
        """Run one slice, with the garbage collector off so that garbage the
        operations left behind does not land on the reference."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def record(self, at: float, took: float) -> None:
        self.at.append(at)
        self.took.append(took)
        self._cum.append(self._cum[-1] + took)

    def burst(self, n: int = BURST) -> None:
        """Run n slices back to back.  The slice before them is not
        recorded: it runs with the caches as the last operation left them,
        so its time would depend on what the program does."""
        self.spent += self._timed()
        for _ in range(n):
            took = self._timed()
            self.spent += took
            self.record(time.perf_counter(), took)

    def keep_up(self, op_seconds: float) -> None:
        """Run bursts until all slices add up to SHARE of op_seconds."""
        while self.spent < SHARE * op_seconds:
            self.burst()

    def scale(self, t: float) -> float:
        """NOMINAL_S over the mean slice time within HALF_WIDTH_S of time t,
        or of the slice nearest to t when none is that close."""
        lo = bisect.bisect_left(self.at, t - HALF_WIDTH_S)
        hi = bisect.bisect_right(self.at, t + HALF_WIDTH_S)
        if lo == hi:
            nearest = min(range(len(self.at)), key=lambda k: abs(self.at[k] - t))
            lo, hi = nearest, nearest + 1
        return NOMINAL_S * (hi - lo) / (self._cum[hi] - self._cum[lo])

    def median_ms(self) -> float:
        return 1000 * statistics.median(self.took)


def scaled(times: list[float], ends: list[float], speed: Speed) -> list[float]:
    """Each time in reference time, by the slices around its midpoint."""
    return [t * speed.scale(end - t / 2) for t, end in zip(times, ends)]


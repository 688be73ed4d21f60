"""Host-speed probe: a fixed slice of reference work timed between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent, for seconds to minutes at a time, with the load of other
tenants.  Process CPU time drifts with it (the slowdown is not stolen
time), so no clock filters it out.  Instead a fixed slice of work that
does not touch the package is timed between ops, and each op's time is
divided by the host speed the slices measured around it:

    normalised = elapsed * REFERENCE_SLICE_S / (median nearby slice time)

A normalised time reads as the time the op would take on a host where
one slice takes REFERENCE_SLICE_S.  The slice mixes what the ops spend
their time on: complex matrix products, a Hermitian eigensolver and
interpreted Python.  A change to the package moves the op times and not
the slices, so it moves the normalised times in full.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median time of one slice on the host the benchmark was defined on
# (2 vCPUs of a shared x86-64 host, 1 BLAS thread).  It only sets the
# scale of the normalised times; their ratios between two versions of
# the package do not depend on it.
REFERENCE_SLICE_S = 1.0e-3
# A slice is taken before an op when this long has passed since the last.
SLICE_GAP_S = 0.02
# Slices timed back to back at each sampling point.  One more runs
# untimed before them: a slice right after an op runs with the op's data
# in the caches and is about 40 % slower than the next.
BURST = 3
# Slices within this distance of an op's start or end set its speed.
WINDOW_S = 0.25


def _slice_inputs():
    rng = np.random.default_rng(12345)
    a = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
    h = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
    return a, h + h.conj().T


_A, _H = _slice_inputs()


def run_slice() -> None:
    """The reference work: about 1 ms on the reference host."""
    m = _A @ _A
    m = m @ _A
    np.linalg.eigvalsh(_H)
    total = 0
    for i in range(3000):
        total += i * i
    np.einsum("ij,ji->", m, _A)


class SpeedProbe:
    """Slice samples over a run, and the speed factor of any interval."""

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        run_slice()
        for _ in range(BURST):
            start = time.perf_counter()
            run_slice()
            end = time.perf_counter()
            self.mids.append(0.5 * (start + end))
            self.durations.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SLICE_GAP_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Slice time near [start, end] over the reference slice time.

        Uses the slices within WINDOW_S of the interval, or, if there are
        fewer than two bursts, the two nearest bursts on each side.
        """
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if hi - lo < 2 * BURST:
            lo = max(0, bisect.bisect_left(self.mids, start) - 2 * BURST)
            hi = min(len(self.mids),
                     bisect.bisect_right(self.mids, end) + 2 * BURST)
        return statistics.median(self.durations[lo:hi]) / REFERENCE_SLICE_S

    def around(self, fn):
        """Call fn with two bursts of slices on each side.

        Returns fn's result and the speed factor of those slices.
        """
        first = len(self.durations)
        self.sample()
        self.sample()
        result = fn()
        self.sample()
        self.sample()
        durations = self.durations[first:]
        return result, statistics.median(durations) / REFERENCE_SLICE_S

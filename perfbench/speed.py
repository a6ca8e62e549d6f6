"""How fast the CPU runs Python at each moment, to take a shared host's
slowdowns out of the timings.

On a host shared with other tenants the same pure-Python work takes up to
twice as long at some moments as at others. The slow spells come and go
within milliseconds and can last for minutes, so a pass of a few seconds
lasts as long as the neighbours let it. ``SpeedProbe`` measures that: while
it is active, a timer signal every ``INTERVAL_S`` runs a fixed reference
kernel (``_reference``: dict lookups and string building, like the
package's own code) and records how long it took. ``REFERENCE_S / took`` is
the host's share of full speed at that moment.

Full speed is the speed at which the kernel takes ``REFERENCE_S``, its
fastest time on a Xeon (Sapphire Rapids, 2.1 GHz) vCPU with quiet
neighbours. It is a fixed value, not the fastest time seen in the run,
because on a busy host that fastest time differs by 10% between runs and
every timing of a run would move with it. On other hardware the timings are
in seconds of that reference host; a comparison of two commits on one
machine needs no more.

``SpeedProbe.seconds(a, b)`` is the time ``[a, b]`` would have taken at full
speed: its length minus the probe's own time in it, times the mean share of
full speed over the samples taken in it. Samples are evenly spaced in time,
so the mean weighs every moment of the interval alike.
"""

from __future__ import annotations

import bisect
import signal
import time

_now = time.perf_counter
INTERVAL_S = 0.004
REFERENCE_S = 60e-6
_WORDS = [f"w{i:03d}{'xyz'[i % 3]}" for i in range(400)]
_INDEX = {w: i for i, w in enumerate(_WORDS)}


def _reference() -> int:
    """About 80 microseconds of interpreter work at full speed."""
    parts = []
    acc = 0
    for w in _WORDS:
        acc += _INDEX.get(w, 0)
        parts.append(w[::-1])
    return acc + len(" ".join(parts).split())


class SpeedProbe:
    """Use as a context manager around the code to be timed; then read
    ``seconds(a, b)`` for any interval ``a < b`` inside it. Main thread only."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.at: list[float] = []      # when each sample started
        self.took: list[float] = []    # how long the reference kernel took
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = _now()
        _reference()
        t1 = _now()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(50):             # warm the kernel before the first sample
            _reference()
        self._sample(None, None)        # so that there is always one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def fastest(self) -> float:
        return min(self.took)

    def speed(self, a: float, b: float) -> float:
        """Mean share of full speed over the samples taken in ``[a, b]``;
        the nearest sample's when none was."""
        i, j = bisect.bisect_left(self.at, a), bisect.bisect_left(self.at, b)
        if i == j:
            k = min(max(i - 1, 0), len(self.at) - 1)
            return REFERENCE_S / self.took[k]
        return sum(REFERENCE_S / d for d in self.took[i:j]) / (j - i)

    def seconds(self, a: float, b: float) -> float:
        """``[a, b]`` as it would have lasted at full speed, without the
        probe's own samples."""
        i, j = bisect.bisect_left(self.at, a), bisect.bisect_left(self.at, b)
        own = sum(self.took[i:j])
        return max(b - a - own, 0.0) * self.speed(a, b)

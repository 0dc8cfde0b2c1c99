"""A simulated clock.

All performance in this reproduction is measured in *simulated seconds*:
operations consume time according to the cost models in :mod:`repro.sim`,
and throughput is ``operations / elapsed simulated time``.  This lets a
"5-minute" benchmark from the paper complete in milliseconds of wall time
while preserving the relative costs that make tuning interesting.
"""

from __future__ import annotations


class SimClock:
    """Monotonic simulated clock measured in seconds.

    The clock only moves forward via :meth:`advance`; it never reads wall
    time, which keeps every experiment deterministic.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time.

        Negative advances are rejected: simulated time is monotonic.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        self._now += seconds
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.6f}s)"

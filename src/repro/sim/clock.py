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

    ``now`` is the current simulated time in seconds.  The clock moves
    forward through :meth:`advance`; it never reads wall time, which
    keeps every experiment deterministic.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self.now = float(start)

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time.

        Negative advances are rejected: simulated time is monotonic.
        ``LSMEngine._execute`` advances with an inline copy of this
        method (its charges are never negative): it keeps the time in a
        local and stores ``now`` after every op; the block == one-op ==
        oracle check (``tests/oracles.py`` runs this one) keeps the two
        equal.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        self.now += seconds
        return self.now

    def __repr__(self) -> str:
        return f"SimClock(t={self.now:.6f}s)"

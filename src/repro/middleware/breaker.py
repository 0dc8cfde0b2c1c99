"""Circuit breakers and bulkheads for per-tenant operations.

The two expensive / failure-prone per-tenant operations — the surrogate
search and the config actuation push — each sit behind one of these.
Consecutive failures trip the circuit *open*: further calls are
short-circuited (the session holds its current configuration instead of
retry-storming a dead dependency).  After ``cooldown_windows`` window
rounds the circuit goes *half-open* and admits exactly one probe; a
successful probe closes it, a failed probe re-opens it for another
cooldown.

The breaker is window-indexed, not wall-clock-indexed, so the state
machine is fully deterministic: the same window/outcome sequence always
walks the same transitions.  It publishes nothing itself; the owning
:class:`~repro.middleware.guard.TenantGuard` maps the transition labels
returned here onto ``guard.breaker.*`` events.

A bulkhead caps how often an operation runs inside a rolling span of
windows; the guard uses one for pushes, the drift reconciler one for its
repairs.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

from repro.errors import GuardError

#: Breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Deterministic, window-indexed circuit breaker for one operation."""

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        cooldown_windows: int = 4,
    ):
        if failure_threshold < 1:
            raise GuardError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if cooldown_windows < 1:
            raise GuardError(
                f"cooldown_windows must be >= 1, got {cooldown_windows!r}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_windows = cooldown_windows
        self.state = CLOSED
        self.opened_count = 0
        self.short_circuits = 0
        self._consecutive_failures = 0
        self._opened_at: Optional[int] = None

    def allow(self, window: int) -> Tuple[bool, Optional[str]]:
        """May the operation run in this window?

        Returns ``(allowed, transition)``; ``transition`` is
        ``"half_open"`` when the cooldown just elapsed and this call
        admits the probe.
        """
        if self.state == CLOSED:
            return True, None
        if self.state == OPEN:
            if window - self._opened_at >= self.cooldown_windows:
                self.state = HALF_OPEN
                return True, "half_open"
            self.short_circuits += 1
            return False, None
        return True, None  # HALF_OPEN: the probe window

    def record_success(self, window: int) -> Optional[str]:
        """Report a successful call; closes a half-open circuit."""
        self._consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self._opened_at = None
            return "close"
        return None

    def record_failure(self, window: int) -> Optional[str]:
        """Report a failed call; may trip the circuit open."""
        self._consecutive_failures += 1
        if self.state == HALF_OPEN:
            return self._open(window)
        if self.state == CLOSED and (
            self._consecutive_failures >= self.failure_threshold
        ):
            return self._open(window)
        return None

    def force_open(self, window: int) -> Optional[str]:
        """Trip the circuit from an external signal (e.g. error budget)."""
        if self.state == OPEN:
            return None
        return self._open(window)

    def _open(self, window: int) -> str:
        self.state = OPEN
        self.opened_count += 1
        self._opened_at = window
        self._consecutive_failures = 0
        return "open"

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state!r}, "
            f"opens={self.opened_count})"
        )


class _Bulkhead:
    """Rolling-window invocation budget for one operation.

    An uncapped bulkhead (``limit=None``) always allows and remembers
    nothing.
    """

    def __init__(self, name: str, limit: Optional[int], span: int):
        self.name = name
        self.limit = limit
        self.span = span
        self._uses: deque = deque()

    def used(self, window: int) -> int:
        while self._uses and self._uses[0] <= window - self.span:
            self._uses.popleft()
        return len(self._uses)

    def allow(self, window: int) -> bool:
        if self.limit is None:
            return True
        return self.used(window) < self.limit

    def record(self, window: int) -> None:
        if self.limit is not None:
            self._uses.append(window)

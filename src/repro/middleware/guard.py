"""Overload protection for one tenant: SLO tracking, breakers, bulkheads.

:class:`TenantGuard` is the per-tenant facade the session layer talks
to.  It composes:

* an :class:`~repro.middleware.slo.SloTracker` scoring every sealed
  window against the tenant's :class:`~repro.middleware.slo.SloSpec`
  and burning a rolling error budget (``guard.slo.*`` events);
* two :class:`~repro.middleware.breaker.CircuitBreaker` instances
  around the expensive per-tenant operations — surrogate **search** and
  config **push** — tripped by consecutive failures or (push) by error
  budget exhaustion (``guard.breaker.*`` events);
* a **restart bulkhead** capping config pushes per rolling ``span``
  windows (``guard.bulkhead.exhausted`` events), so one tenant cannot
  thrash its ring with rolling restarts.

A blocked operation is never an error: the session simply holds its
current configuration for the window — the safe landing the paper's
baseline guarantees.  All state is window-indexed, seeded by nothing,
and picklable with ``events=None``, so the sharded serve path carries
guards through worker processes bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import GuardError
from repro.middleware.breaker import CircuitBreaker, _Bulkhead
from repro.middleware.slo import SloSpec, SloTracker


@dataclass(frozen=True)
class GuardSpec:
    """Breaker and bulkhead settings for one tenant.

    ``breaker_failures`` consecutive failed searches/pushes open the
    matching circuit; an open circuit holds for ``breaker_cooldown``
    windows, then admits one half-open probe.  ``max_restarts`` caps the
    config pushes inside a rolling ``span``-window bulkhead (``None`` =
    uncapped).  The push breaker also trips when the tenant's SLO error
    budget burns out — a tenant that is already missing its objective
    should stop paying reconfiguration transients on top.
    """

    breaker_failures: int = 3
    breaker_cooldown: int = 4
    max_restarts: Optional[int] = None
    span: int = 8

    def __post_init__(self):
        if self.breaker_failures < 1:
            raise GuardError(
                f"breaker_failures must be >= 1, got {self.breaker_failures!r}"
            )
        if self.breaker_cooldown < 1:
            raise GuardError(
                f"breaker_cooldown must be >= 1, got {self.breaker_cooldown!r}"
            )
        if self.span < 1:
            raise GuardError(f"span must be >= 1, got {self.span!r}")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise GuardError(f"max_restarts must be >= 0, got {self.max_restarts!r}")


class TenantGuard:
    """Per-tenant overload protection the session consults each phase."""

    def __init__(
        self,
        tenant_id: str,
        slo: Optional[SloSpec] = None,
        spec: Optional[GuardSpec] = None,
        events=None,
    ):
        self.tenant_id = tenant_id
        self.spec = spec or GuardSpec()
        self.slo = SloTracker(slo) if slo is not None else None
        self.events = events
        self.search_breaker = CircuitBreaker(
            "search",
            failure_threshold=self.spec.breaker_failures,
            cooldown_windows=self.spec.breaker_cooldown,
        )
        self.push_breaker = CircuitBreaker(
            "push",
            failure_threshold=self.spec.breaker_failures,
            cooldown_windows=self.spec.breaker_cooldown,
        )
        self._push_bulkhead = _Bulkhead(
            "push", self.spec.max_restarts, self.spec.span
        )

    # -- admission decisions the session asks for -------------------------------

    def allow_search(self, window: int) -> bool:
        """May this window run a surrogate search?"""
        return self._allow(self.search_breaker, window)

    def allow_push(self, window: int) -> bool:
        """May this window push (actuate) a configuration?"""
        if not self._allow(self.push_breaker, window):
            return False
        bulkhead = self._push_bulkhead
        if bulkhead.allow(window):
            return True
        self._publish(
            "guard.bulkhead.exhausted",
            f"{bulkhead.name} budget spent "
            f"({bulkhead.used(window)}/{bulkhead.limit} in "
            f"{bulkhead.span} windows); holding the current configuration",
            op=bulkhead.name,
            window=window,
            used=bulkhead.used(window),
            limit=bulkhead.limit,
            span=bulkhead.span,
        )
        return False

    def record_search(self, window: int, ok: bool) -> None:
        """Report an attempted search's outcome to its breaker."""
        self._record(self.search_breaker, window, ok)

    def record_push(self, window: int, ok: bool) -> None:
        """Report an attempted push's outcome to breaker + bulkhead."""
        self._push_bulkhead.record(window)
        self._record(self.push_breaker, window, ok)

    def trip_push(self, window: int, reason: str) -> None:
        """Force the push breaker open (e.g. unrepaired config drift)."""
        change = self.push_breaker.force_open(window)
        self._breaker_event("push", change, window, reason=reason)

    def observe_window(self, event) -> None:
        """Score one sealed window against the SLO; react to the budget."""
        if self.slo is None:
            return
        if getattr(event, "quarantined", False):
            # The window ran on a mixed-config ring: its throughput says
            # nothing about the intended configuration, so it neither
            # burns nor recovers the SLO error budget.
            return
        violated, transition = self.slo.score(event)
        if violated:
            self._publish(
                "guard.slo.violation",
                f"window {event.window_index} missed the SLO "
                f"({event.mean_throughput:,.0f} ops/s, "
                f"floor {self.slo.spec.throughput_floor:,.0f})",
                window=event.window_index,
                observed=event.mean_throughput,
                floor=self.slo.spec.throughput_floor,
                budget_remaining=self.slo.budget_remaining,
                shed=bool(getattr(event, "shed", False)),
            )
        if transition == "budget_exhausted":
            self._publish(
                "guard.slo.budget_exhausted",
                f"error budget exhausted at window {event.window_index} "
                f"({self.slo.violations} violations in "
                f"{self.slo.windows_scored} windows)",
                window=event.window_index,
                budget_remaining=self.slo.budget_remaining,
            )
            change = self.push_breaker.force_open(event.window_index)
            self._breaker_event(
                "push", change, event.window_index, reason="error-budget"
            )
        elif transition == "recovered":
            self._publish(
                "guard.slo.recovered",
                f"error budget recovered at window {event.window_index}",
                window=event.window_index,
                budget_remaining=self.slo.budget_remaining,
            )

    @property
    def budget_remaining(self) -> float:
        """SLO budget left; +inf for tenants without an SLO (no promise)."""
        if self.slo is None:
            return float("inf")
        return self.slo.budget_remaining

    # -- internals ---------------------------------------------------------------

    def _allow(self, breaker: CircuitBreaker, window: int) -> bool:
        allowed, transition = breaker.allow(window)
        self._breaker_event(breaker.name, transition, window, reason="cooldown")
        if not allowed:
            self._publish(
                "guard.breaker.short_circuit",
                f"{breaker.name} circuit open (window {window}); "
                "holding the current configuration",
                op=breaker.name,
                window=window,
            )
        return allowed

    def _record(self, breaker: CircuitBreaker, window: int, ok: bool) -> None:
        change = (
            breaker.record_success(window) if ok else breaker.record_failure(window)
        )
        self._breaker_event(
            breaker.name, change, window, reason="probe" if ok else "failures"
        )

    def _breaker_event(
        self, op: str, transition: Optional[str], window: int, reason: str
    ) -> None:
        if transition is None:
            return
        self._publish(
            f"guard.breaker.{transition}",
            f"{op} circuit -> {transition.replace('_', '-')} "
            f"(window {window}, {reason})",
            op=op,
            window=window,
            reason=reason,
        )

    def _publish(self, topic: str, message: str, **payload) -> None:
        if self.events is not None:
            self.events.publish(topic, message, **payload)

    def __repr__(self) -> str:
        return (
            f"TenantGuard({self.tenant_id!r}, "
            f"search={self.search_breaker.state}, "
            f"push={self.push_breaker.state}, "
            f"slo={self.slo!r})"
        )

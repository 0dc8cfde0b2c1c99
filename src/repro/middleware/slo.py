"""Per-tenant SLO specs and the deterministic window-scoring tracker.

Rafiki's job is keeping a shared cluster inside its performance envelope
(paper §5); an :class:`SloSpec` makes that envelope explicit per tenant:
a throughput floor the tenant must sustain and an *error budget* — the
fraction of windows inside a rolling evaluation span the tenant is
allowed to miss before the guard layer reacts (stops churning configs,
deprioritizes the tenant in admission control).

The :class:`SloTracker` is pure bookkeeping: it scores each sealed
window against the spec and burns/refills the budget over the rolling
span.  It publishes nothing itself — the owning
:class:`~repro.middleware.guard.TenantGuard` turns its verdicts into
``guard.slo.*`` events — so scoring is trivially deterministic and
picklable for the sharded serve path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import isfinite

from repro.errors import GuardError


@dataclass(frozen=True)
class SloSpec:
    """One tenant's service-level objective.

    ``throughput_floor`` is ops/s the tenant's windows must sustain;
    ``error_budget`` is the violating-window fraction tolerated inside a
    rolling ``window_span``-window evaluation span.
    """

    throughput_floor: float = 0.0
    window_span: int = 8
    error_budget: float = 0.1

    def __post_init__(self):
        if not isfinite(self.throughput_floor) or self.throughput_floor < 0:
            raise GuardError(
                f"throughput_floor must be >= 0, got {self.throughput_floor!r}"
            )
        if self.window_span < 1:
            raise GuardError(f"window_span must be >= 1, got {self.window_span!r}")
        if not (0.0 <= self.error_budget <= 1.0):
            raise GuardError(
                f"error_budget must be in [0, 1], got {self.error_budget!r}"
            )

    @property
    def allowed_violations(self) -> float:
        """Violating windows the budget tolerates per evaluation span."""
        return self.error_budget * self.window_span


class SloTracker:
    """Scores sealed windows against an :class:`SloSpec`.

    Deterministic by construction: the verdict for a window depends only
    on the window's :class:`~repro.core.controller.ControllerEvent` and
    the previous verdicts inside the rolling span.  ``score`` returns
    ``(violated, transition)`` where ``transition`` is ``None``,
    ``"budget_exhausted"`` (the rolling span just overran the budget) or
    ``"recovered"`` (it just came back inside).
    """

    def __init__(self, spec: SloSpec):
        self.spec = spec
        self.windows_scored = 0
        self.violations = 0
        self.budget_exhausted = False
        self._recent: deque = deque(maxlen=spec.window_span)

    @property
    def budget_remaining(self) -> float:
        """Violations the span can still absorb (may go negative)."""
        return self.spec.allowed_violations - sum(self._recent)

    @property
    def attainment(self) -> float:
        """Fraction of scored windows that met the SLO (1.0 before any)."""
        if self.windows_scored == 0:
            return 1.0
        return 1.0 - self.violations / self.windows_scored

    def violates(self, event) -> bool:
        """Does one sealed window miss the objective?"""
        if getattr(event, "shed", False):
            return True
        if event.degraded or event.rolled_back:
            return True
        return event.mean_throughput < self.spec.throughput_floor

    def score(self, event):
        """Fold one window into the rolling span; returns (violated, transition)."""
        violated = self.violates(event)
        self.windows_scored += 1
        if violated:
            self.violations += 1
        self._recent.append(1 if violated else 0)
        exhausted = self.budget_remaining < 0
        transition = None
        if exhausted and not self.budget_exhausted:
            transition = "budget_exhausted"
        elif not exhausted and self.budget_exhausted:
            transition = "recovered"
        self.budget_exhausted = exhausted
        return violated, transition

    def __repr__(self) -> str:
        return (
            f"SloTracker({self.windows_scored} windows, "
            f"{self.violations} violations, "
            f"budget_remaining={self.budget_remaining:.2f})"
        )

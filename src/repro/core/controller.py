"""Shared vocabulary of the online control loop.

Rafiki's online stage watches the RR of each 15-minute window and, when
the regime shifts, searches the surrogate and pushes the new
configuration.  The loop itself is a
:class:`~repro.middleware.session.TenantSession` driven by a
:class:`~repro.middleware.scheduler.MiddlewareScheduler`; this module
holds the types every layer of it shares:

* :class:`ControllerEvent` / :class:`ControllerRun` — one window's
  outcome and a tenant's full run summary (reconfigurations, canary
  rollbacks, degraded / shed / quarantined windows).
* :data:`CANARY_RATIO_ALPHA` — smoothing of the canary's
  observed/predicted baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.config.space import Configuration
from repro.errors import SearchError

#: Smoothing of the observed/predicted throughput ratio the canary
#: normalizes against (high = adapt fast to regime/fault shifts).
CANARY_RATIO_ALPHA = 0.5


@dataclass
class ControllerEvent:
    """One window's outcome."""

    window_index: int
    read_ratio: float
    reconfigured: bool
    configuration: Configuration
    mean_throughput: float
    rolled_back: bool = False
    degraded: bool = False
    #: Admission control deferred this whole window (nothing was served).
    shed: bool = False
    #: The window ran under detected config drift (mixed-config ring);
    #: canary EWMA / SLO scoring / surrogate observation must skip it.
    quarantined: bool = False


@dataclass
class ControllerRun:
    """Full run summary."""

    events: List[ControllerEvent] = field(default_factory=list)

    @property
    def mean_throughput(self) -> float:
        if not self.events:
            raise SearchError("controller run is empty")
        return float(np.mean([e.mean_throughput for e in self.events]))

    @property
    def reconfiguration_count(self) -> int:
        return sum(1 for e in self.events if e.reconfigured)

    @property
    def rollback_count(self) -> int:
        return sum(1 for e in self.events if e.rolled_back)

    @property
    def degraded_count(self) -> int:
        return sum(1 for e in self.events if e.degraded)

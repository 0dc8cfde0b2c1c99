"""Middleware service layer: multi-tenant online tuning.

The paper positions Rafiki as middleware *between* dynamic workloads and
a datastore fleet.  This package is that service layer, in four tiers:

* **Actuation** — :class:`~repro.datastore.adapter.SimulatedDatastoreAdapter`
  (re-exported here): provision / apply-config / rolling-restart /
  teardown, with restart transients charged as modeled capacity loss.
* **Session** — :class:`TenantSession`: one tenant's
  observe -> decide -> actuate -> canary loop as discrete, resumable
  phases, with the retry/degraded/rollback guardrails intact.
* **Scheduler** — :class:`MiddlewareScheduler`: N sessions multiplexed
  on a shared simulated clock with one shared surrogate and
  recommendation cache, deterministically interleaved.
* **Entry** — tenant manifests (:func:`load_manifest`,
  :func:`specs_from_manifest`) feeding ``python -m repro serve``.

Overload protection rides below the session tier: per-tenant
:class:`TenantGuard` facades compose an :class:`SloTracker` (rolling
error budget over an :class:`SloSpec`), circuit breakers around search
and actuation, and a restart bulkhead; the scheduler's
:class:`CapacityLedger` adds shared-cluster admission control and
deterministic priority shedding.  All of it is off by default — an
unguarded run is bit-identical to the pre-guard scheduler.

Verified actuation rides at the same tier: a per-tenant
:class:`DriftReconciler` (configured by :class:`ReconcileSpec`) reads
back the per-node applied configs after every actuate/recover point,
repairs partial pushes and stale recoveries within a bounded rolling
repair budget, and quarantines windows that ran on a mixed-config ring
so the canary EWMA and SLO budget never ingest drifted throughput.
Off by default, like the guards.
"""

from repro.datastore.adapter import RollingRestartReport, SimulatedDatastoreAdapter
from repro.middleware.breaker import CircuitBreaker
from repro.middleware.guard import GuardSpec, TenantGuard
from repro.middleware.ledger import CapacityLedger
from repro.middleware.manifest import (
    TenantManifest,
    load_manifest,
    parse_manifest,
    specs_from_manifest,
)
from repro.middleware.reconcile import (
    DriftReconciler,
    ReconcileOutcome,
    ReconcileSpec,
)
from repro.middleware.scheduler import MiddlewareScheduler, TenantSpec
from repro.middleware.session import (
    RESTART_POLICIES,
    SESSION_PHASES,
    TenantSession,
    WindowState,
)
from repro.middleware.slo import SloSpec, SloTracker

__all__ = [
    "SimulatedDatastoreAdapter",
    "RollingRestartReport",
    "TenantSession",
    "WindowState",
    "SESSION_PHASES",
    "RESTART_POLICIES",
    "MiddlewareScheduler",
    "TenantSpec",
    "TenantManifest",
    "load_manifest",
    "parse_manifest",
    "specs_from_manifest",
    "SloSpec",
    "SloTracker",
    "CircuitBreaker",
    "GuardSpec",
    "TenantGuard",
    "CapacityLedger",
    "ReconcileSpec",
    "ReconcileOutcome",
    "DriftReconciler",
]

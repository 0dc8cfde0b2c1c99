"""Drift reconciliation for one tenant: detect, repair, quarantine.

Actuation is fallible: a config push can silently fail on one node
(partial push) and a crashed node can rejoin on its pre-crash knobs
(stale recovery).  The :class:`DriftReconciler` is the session layer's
answer — after every actuate/recover point it reads back the per-node
applied configs (``adapter.verify_config()``), publishes ``actuate.drift``
with the drifted node set and fingerprint delta, and repairs by
re-pushing *only* the drifted nodes within a bounded rolling repair
budget (each repair charges the usual per-node restart transient).

A window that ran under detected drift is **quarantined**: its
throughput reflects a mixed-config ring, so the canary EWMA, the SLO
error budget, and the surrogate observation path must not ingest it as
if it were the intended configuration's.  Drift that cannot be repaired
this window — budget spent, or the re-push refused again — *escalates*:
the session enters degraded mode and trips the push breaker, so the
tenant stops layering new pushes on an unverified ring.

Like the guard, all state is window-indexed, seeded by nothing, and
picklable with ``events=None``, so the sharded serve path reproduces
identical drift/repair/quarantine event sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import GuardError
from repro.middleware.breaker import _Bulkhead


@dataclass(frozen=True)
class ReconcileSpec:
    """Verified-actuation settings for one tenant.

    ``max_repairs`` caps repair re-pushes inside a rolling ``span``-window
    budget (``None`` = uncapped); ``escalate`` controls whether
    unrepaired drift degrades the window and trips the push breaker
    (``False`` keeps quarantining without touching the breaker —
    observe-only mode).  A tenant without a spec runs no reconciler at
    all: the blind-actuation loop.
    """

    max_repairs: Optional[int] = None
    span: int = 8
    escalate: bool = True

    def __post_init__(self):
        if self.span < 1:
            raise GuardError(f"span must be >= 1, got {self.span!r}")
        if self.max_repairs is not None and self.max_repairs < 0:
            raise GuardError(
                f"max_repairs must be >= 0, got {self.max_repairs!r}"
            )


@dataclass
class ReconcileOutcome:
    """What one reconcile pass found and did."""

    drift_detected: bool = False
    drifted_nodes: Tuple[int, ...] = ()
    repaired: bool = False
    repair_report: Optional[object] = None
    quarantined: bool = False
    escalated: bool = False


class DriftReconciler:
    """Per-tenant detect/repair loop the session runs each window."""

    def __init__(
        self,
        tenant_id: str,
        spec: Optional[ReconcileSpec] = None,
        events=None,
    ):
        self.tenant_id = tenant_id
        self.spec = spec or ReconcileSpec()
        self.events = events
        self._repairs = _Bulkhead("repair", self.spec.max_repairs, self.spec.span)
        self.drift_windows = 0
        self.repairs_attempted = 0
        self.repairs_succeeded = 0
        self.quarantined_windows = 0
        self.escalations = 0

    # -- the reconcile pass ----------------------------------------------------

    def reconcile(
        self, window: int, adapter, read_ratio: float, rolling: bool = True
    ) -> ReconcileOutcome:
        """Verify the ring; repair within budget; flag what ran drifted.

        Fast path first: with no drift this makes exactly one
        ``verify_config()`` read-back and publishes nothing, so
        fault-free runs stay bit-identical.
        """
        outcome = ReconcileOutcome()
        report = adapter.verify_config()
        if not report.has_drift:
            return outcome
        outcome.drift_detected = True
        outcome.drifted_nodes = report.drifted_nodes
        outcome.quarantined = True
        self.drift_windows += 1
        self.quarantined_windows += 1
        applied = tuple(
            (node, report.node_fingerprints[node])
            for node in report.drifted_nodes
        )
        self._publish(
            "actuate.drift",
            f"config drift on node(s) {list(report.drifted_nodes)} "
            f"(window {window}): intended {report.intended_fingerprint}",
            window=window,
            nodes=report.drifted_nodes,
            intended_fingerprint=report.intended_fingerprint,
            applied_fingerprints=applied,
            down_nodes=report.down_drifted_nodes,
        )
        if not self._repairs.allow(window):
            self._publish(
                "actuate.repair_blocked",
                f"repair budget spent ({self._repairs.used(window)}/"
                f"{self.spec.max_repairs} in {self.spec.span} windows); "
                f"drift persists (window {window})",
                window=window,
                nodes=report.drifted_nodes,
                used=self._repairs.used(window),
                limit=self.spec.max_repairs,
                span=self.spec.span,
            )
            outcome.escalated = self.spec.escalate
        else:
            self._repairs.record(window)
            self.repairs_attempted += 1
            outcome.repair_report = adapter.repair_config(
                report.drifted_nodes, read_ratio, rolling=rolling
            )
            verify = adapter.verify_config()
            if not verify.has_drift:
                outcome.repaired = True
                self.repairs_succeeded += 1
                self._publish(
                    "actuate.reconciled",
                    f"drift repaired on node(s) {list(report.drifted_nodes)} "
                    f"(window {window})",
                    window=window,
                    nodes=report.drifted_nodes,
                )
            else:
                self._publish(
                    "actuate.repair_failed",
                    f"re-push refused on node(s) "
                    f"{list(verify.drifted_nodes)} (window {window}); "
                    "drift persists",
                    window=window,
                    nodes=verify.drifted_nodes,
                )
                outcome.escalated = self.spec.escalate
        if outcome.escalated:
            self.escalations += 1
        self._publish(
            "actuate.quarantine",
            f"window {window} ran under drift; telemetry quarantined",
            window=window,
            nodes=report.drifted_nodes,
            repaired=outcome.repaired,
            escalated=outcome.escalated,
        )
        return outcome

    def _publish(self, topic: str, message: str, **payload) -> None:
        if self.events is not None:
            self.events.publish(topic, message, **payload)

    def __repr__(self) -> str:
        return (
            f"DriftReconciler({self.tenant_id!r}, "
            f"drift_windows={self.drift_windows}, "
            f"repaired={self.repairs_succeeded}/{self.repairs_attempted}, "
            f"escalations={self.escalations})"
        )

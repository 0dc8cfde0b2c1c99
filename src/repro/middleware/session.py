"""Session layer: one tenant's control loop as a state machine.

One workload window runs through discrete, resumable phases::

    OBSERVE -> DECIDE -> ACTUATE -> RECONCILE -> EXECUTE -> CANARY -> RECORD

Each :meth:`TenantSession.step` drives exactly one workload window
through those phases (``advance_phase`` runs a single transition, so a
scheduler — or a debugger — can interleave and inspect sessions
mid-window).  Transient search/push faults are retried with bounded
exponential backoff, charged as simulated time against the window; an
exhausted budget degrades to the vendor default (the paper's baseline),
and with ``canary_margin`` set a fresh push is canaried for one window
against the surrogate's promise and reverted on undershoot.

``restart_policy="instant"`` teleports a push onto the datastore and
charges the flat ``reconfiguration_penalty_s``; ``"rolling"`` replaces
that penalty with the adapter's rolling restart: each node leaves the
serving set for its restart window, so reconfiguration cost becomes
modeled transient capacity loss (visible as ``actuate.rolling_restart``
events) instead of a constant.

All events publish on the session's bus — hand it a
``bus.scoped("tenant.3")`` view and every ``controller.*`` / ``fault.*``
/ ``actuate.*`` topic is namespaced per tenant without touching the
publish sites.

``guard=`` attaches a :class:`~repro.middleware.guard.TenantGuard`: the
DECIDE phase consults its search breaker before spending a surrogate
search, ACTUATE consults the push breaker/bulkhead before actuating,
and RECORD feeds the sealed window to the SLO tracker.  A
blocked operation holds the current configuration (never an error), and
canary *rollbacks* are deliberately never guard-gated — reverting a bad
push is the safety action.  ``guard=None`` (the default) leaves every
phase bit-identical to the unguarded loop.

``reconciler=`` attaches a
:class:`~repro.middleware.reconcile.DriftReconciler`: the RECONCILE
phase (after ACTUATE, before EXECUTE) reads back the per-node applied
configs, repairs partial pushes and stale recoveries within the repair
budget, and *quarantines* windows that ran under drift — the canary
EWMA and SLO tracker skip them.  Unrepairable drift degrades the window
and trips the push breaker.  ``reconciler=None`` (the default) skips
verification entirely — bit-identical to the blind-actuation loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.config.space import Configuration
from repro.core.controller import CANARY_RATIO_ALPHA, ControllerEvent, ControllerRun
from repro.core.policies import DecisionPolicy, WindowObservation
from repro.datastore.adapter import RollingRestartReport, SimulatedDatastoreAdapter
from repro.datastore.base import Datastore
from repro.errors import SearchError, TransientError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.runtime.events import EventBus
from repro.workload.trace import DEFAULT_WINDOW_SECONDS

#: Phase order of one window, OBSERVE first.
SESSION_PHASES = (
    "observe", "decide", "actuate", "reconcile", "execute", "canary", "record"
)

#: How configuration pushes land on the datastore.
RESTART_POLICIES = ("instant", "rolling")

#: Retry budget for a transient search/push failure: attempts per
#: operation, the first backoff (simulated seconds) and its growth per
#: retry, and the most backoff one operation may accumulate.
_RETRY_ATTEMPTS = 3
_RETRY_BACKOFF_S = 2.0
_RETRY_BACKOFF_FACTOR = 2.0
_RETRY_DEADLINE_S = 60.0


def _unit_clip(x) -> float:
    """``float(np.clip(x, 0.0, 1.0))``, in range without the ~3 µs numpy call."""
    return float(x) if 0.0 <= x <= 1.0 else float(np.clip(x, 0.0, 1.0))


@dataclass
class WindowState:
    """Mutable scratchpad threaded through one window's phases."""

    index: int
    read_ratio: float
    capacity_factor: float = 1.0
    reconfigured: bool = False
    degraded: bool = False
    rolled_back: bool = False
    retry_lost: float = 0.0
    decision_rr: Optional[float] = None
    target: Optional[Configuration] = None
    rolling_report: Optional[RollingRestartReport] = None
    repair_report: Optional[RollingRestartReport] = None
    quarantined: bool = False
    drifted_nodes: Tuple[int, ...] = ()
    steps: List[float] = field(default_factory=list)   # ops/s of each 1-s step
    mean_throughput: float = 0.0
    event: Optional[ControllerEvent] = None


class TenantSession:
    """Observe -> decide -> actuate -> canary loop for one tenant."""

    def __init__(
        self,
        datastore: Datastore,
        rafiki,
        adapter: SimulatedDatastoreAdapter,
        policy: DecisionPolicy,
        *,
        tenant_id: str = "tenant",
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        reconfiguration_penalty_s: float = 5.0,
        canary_margin: Optional[float] = None,
        canary_std_factor: float = 2.0,
        events: Optional[EventBus] = None,
        fault_plan: Optional[FaultPlan] = None,
        restart_policy: str = "instant",
        trace_phases: bool = False,
        guard=None,
        reconciler=None,
    ):
        if restart_policy not in RESTART_POLICIES:
            raise SearchError(
                f"unknown restart policy {restart_policy!r} "
                f"(expected one of {RESTART_POLICIES})"
            )
        if canary_margin is not None:
            if not (0.0 <= canary_margin < 1.0):
                raise SearchError("canary_margin must be in [0, 1)")
            if rafiki is not None and not hasattr(rafiki, "predicted_mean_std"):
                raise SearchError(
                    "canary guard needs a rafiki exposing predicted_mean_std"
                )
        if fault_plan is not None:
            # Validate against the tenant's actual ring size so a plan
            # targeting node 7 on a 3-node tenant fails here, not mid-run.
            fault_plan.validate(n_nodes=adapter.n_nodes)
        self.datastore = datastore
        self.rafiki = rafiki
        self.adapter = adapter
        self.policy = policy
        self.tenant_id = tenant_id
        self.window_seconds = window_seconds
        self.reconfiguration_penalty_s = reconfiguration_penalty_s
        self.canary_margin = canary_margin
        self.canary_std_factor = canary_std_factor
        self.events = events or EventBus()
        self.fault_plan = fault_plan
        self.restart_policy = restart_policy
        self.trace_phases = trace_phases
        # Optional overload protection (see repro.middleware.guard): SLO
        # tracking, search/push circuit breakers, bulkhead budgets.
        # guard=None keeps every phase bit-identical to the unguarded loop.
        self.guard = guard
        # Optional verified actuation (see repro.middleware.reconcile):
        # drift read-back, bounded repair, telemetry quarantine.
        # reconciler=None skips verification — the blind-actuation loop.
        self.reconciler = reconciler

        self.phase: str = "created"
        self.result = ControllerRun()
        self._injector: Optional[FaultInjector] = None
        self._window: Optional[WindowState] = None
        self._window_index = 0
        self._config: Optional[Configuration] = None
        self._default_config: Optional[Configuration] = None
        self._previous_rr: Optional[float] = None
        self._ratio_baseline: Optional[float] = None   # EWMA of observed/predicted
        self._pending_canary: Optional[Configuration] = None
        self._redecide = False    # last window degraded: don't trust "hold"

    # -- lifecycle -------------------------------------------------------------

    def start(self, load_keys: Optional[int] = None) -> "TenantSession":
        """Provision the tenant's datastore and reset per-run state."""
        self._default_config = self.datastore.default_configuration()
        self._config = self._default_config
        self.adapter.provision(load_keys=load_keys)
        self._injector = (
            FaultInjector(self.fault_plan, events=self.events)
            if self.fault_plan is not None and not self.fault_plan.is_empty
            else None
        )
        self.policy.reset()
        self.result = ControllerRun()
        self._window_index = 0
        self._previous_rr = None
        self._ratio_baseline = None
        self._pending_canary = None
        self._redecide = False
        self._set_phase("idle")
        return self

    def finish(self) -> ControllerRun:
        """Close the session and return its :class:`ControllerRun`."""
        self.adapter.teardown()
        self._set_phase("done")
        return self.result

    @property
    def windows_completed(self) -> int:
        return len(self.result.events)

    # -- one window ------------------------------------------------------------

    def step(
        self, read_ratio: float, capacity_factor: float = 1.0
    ) -> ControllerEvent:
        """Drive one window through every phase; returns its event.

        ``capacity_factor`` < 1 models shared-cluster overload (the
        scheduler's admission control could not shed enough demand):
        the window's served throughput scales down proportionally.
        """
        self.begin_window(read_ratio, capacity_factor=capacity_factor)
        while self._window is not None:
            self.advance_phase()
        return self.result.events[-1]

    def begin_window(
        self, read_ratio: float, capacity_factor: float = 1.0
    ) -> WindowState:
        """Open a window; phases then advance one at a time."""
        if self.phase == "created":
            raise SearchError("session not started (call start() first)")
        if self._window is not None:
            raise SearchError(
                f"window {self._window.index} still in phase {self.phase!r}"
            )
        if not (0.0 < capacity_factor <= 1.0):
            raise SearchError(
                f"capacity_factor must be in (0, 1], got {capacity_factor!r}"
            )
        self._window = WindowState(
            index=self._window_index,
            read_ratio=_unit_clip(read_ratio),
            capacity_factor=float(capacity_factor),
        )
        self._set_phase("observe")
        return self._window

    def record_shed_window(self, read_ratio: float) -> ControllerEvent:
        """Seal one *shed* window: admission control deferred the tenant.

        The workload happened — the middleware just refused to serve it
        this round — so the policy/forecaster still observe the window's
        read ratio, but no phase runs, nothing is served, and the sealed
        event carries ``shed=True`` with zero throughput.  Shed windows
        burn the tenant's own SLO error budget, which deprioritizes it
        for the *next* shed decision (shedding rotates across peers).
        """
        if self.phase == "created":
            raise SearchError("session not started (call start() first)")
        if self._window is not None:
            raise SearchError(
                f"window {self._window.index} still in phase {self.phase!r}"
            )
        rr = _unit_clip(read_ratio)
        self.policy.observe(rr)
        self._previous_rr = rr
        event = ControllerEvent(
            window_index=self._window_index,
            read_ratio=rr,
            reconfigured=False,
            configuration=self._config,
            mean_throughput=0.0,
            shed=True,
        )
        self.result.events.append(event)
        self._window_index += 1
        if self.guard is not None:
            self.guard.observe_window(event)
        return event

    def advance_phase(self) -> str:
        """Execute the current phase; returns the next phase's name."""
        if self._window is None:
            raise SearchError("no open window (call begin_window first)")
        handler = getattr(self, f"_phase_{self.phase}")
        handler(self._window)
        if self.phase == "record":
            self._window = None
            self._set_phase("idle")
        else:
            i = SESSION_PHASES.index(self.phase)
            self._set_phase(SESSION_PHASES[i + 1])
        return self.phase

    # -- phases ----------------------------------------------------------------

    def _phase_observe(self, ws: WindowState) -> None:
        """Land this window's scheduled node/disk faults."""
        if self._injector is not None:
            self._injector.begin_window(ws.index, cluster=self.adapter.cluster)

    def _phase_decide(self, ws: WindowState) -> None:
        """Ask the policy, then search for the window's target config."""
        if self.rafiki is None:
            return
        decision_rr = self.policy.decide(
            WindowObservation(
                index=ws.index,
                read_ratio=ws.read_ratio,
                previous_read_ratio=self._previous_rr,
            )
        )
        if decision_rr is None and self._redecide:
            # The previous window ended on a fallback config the policy
            # believes was the intended one; hysteresis would hold
            # forever.  Re-decide from the observed RR until a window
            # completes healthy again.
            decision_rr = ws.read_ratio
        ws.decision_rr = decision_rr
        if decision_rr is None:
            return
        if self.guard is not None and not self.guard.allow_search(ws.index):
            # Search circuit open: hold the current configuration
            # instead of retry-storming the surrogate.
            ws.decision_rr = None
            return
        target, lost, degraded = self._decide_target(ws.index, decision_rr)
        if self.guard is not None:
            self.guard.record_search(ws.index, ok=not degraded)
        ws.retry_lost += lost
        ws.degraded = degraded
        ws.target = target

    def _phase_actuate(self, ws: WindowState) -> None:
        """Push the target configuration, instantly or rolling."""
        target = ws.target
        if target is None or target == self._config:
            return
        if self.guard is not None and not self.guard.allow_push(ws.index):
            # Actuation circuit open (failures or exhausted error budget)
            # or restart bulkhead spent: keep serving on the current
            # configuration.  Unlike a failed push this is not a degraded
            # window — the guard chose not to try.
            return
        pushed, lost = self._push(ws, target)
        if self.guard is not None:
            self.guard.record_push(ws.index, ok=pushed)
        ws.retry_lost += lost
        if pushed:
            canary_on = self.canary_margin is not None and self.rafiki is not None
            if canary_on and not ws.degraded:
                self._pending_canary = self._config
            self._config = target
            ws.reconfigured = True
        else:
            ws.degraded = True
            self._publish(
                "controller.degraded",
                f"config push failed (window {ws.index}); "
                "keeping the current configuration",
                reason="push",
                window=ws.index,
            )

    def _phase_reconcile(self, ws: WindowState) -> None:
        """Verify what the push actually applied; repair or quarantine."""
        if self.reconciler is None:
            return
        outcome = self.reconciler.reconcile(
            ws.index,
            self.adapter,
            ws.read_ratio,
            rolling=(self.restart_policy == "rolling"),
        )
        if not outcome.drift_detected:
            return
        ws.quarantined = outcome.quarantined
        ws.drifted_nodes = outcome.drifted_nodes
        ws.repair_report = outcome.repair_report
        if outcome.escalated:
            # Unrepairable drift: the ring is serving unverified knobs.
            # Degrade the window and stop layering new pushes on top.
            ws.degraded = True
            self._publish(
                "controller.degraded",
                f"config drift unrepaired (window {ws.index}); "
                "entering degraded mode",
                reason="drift",
                window=ws.index,
            )
            if self.guard is not None:
                self.guard.trip_push(ws.index, reason="drift")

    def _phase_execute(self, ws: WindowState) -> None:
        """Serve the window; downtime and backoff charge against it."""
        self.policy.observe(ws.read_ratio)
        self._previous_rr = ws.read_ratio

        duration = self.window_seconds
        reports = [
            r for r in (ws.rolling_report, ws.repair_report) if r is not None
        ]
        if not reports:
            # Proactive (forecast-driven) reconfiguration happens at the
            # window boundary, overlapping idle time; reactive/oracle
            # reconfiguration eats into the window.  Retry backoff is
            # always in-window lost time.
            lost = (
                0.0
                if (self.policy.proactive or not ws.reconfigured)
                else self.reconfiguration_penalty_s
            )
            lost = min(lost + ws.retry_lost, duration)
            remaining = duration - lost
            ws.steps = []
        else:
            # The rolling restart (and any drift repair) already consumed
            # part of the window — their steps served real, reduced
            # throughput; no flat penalty on top — the restart IS the
            # reconfiguration cost.
            consumed = min(sum(r.duration_s for r in reports), duration)
            lost = min(ws.retry_lost, duration - consumed)
            remaining = duration - consumed - lost
            ws.steps = [s for r in reports for s in r.steps]
        # The window serves its whole seconds left, none if under one.
        if remaining >= 1.0:
            ws.steps += self.adapter.run(ws.read_ratio, math.floor(remaining), dt=1.0)
        window_ops = sum(ws.steps)
        ws.mean_throughput = window_ops / duration
        if ws.capacity_factor != 1.0:
            # Shared-cluster overload the scheduler could not shed away:
            # this tenant's share of the round scales down with everyone
            # else's (kept off the ``== 1.0`` fast path so unguarded runs
            # stay bit-identical).
            ws.mean_throughput *= ws.capacity_factor

    def _phase_canary(self, ws: WindowState) -> None:
        """Judge a canaried push against the surrogate's promise."""
        if self.canary_margin is None or self.rafiki is None:
            return
        if ws.quarantined:
            # Mixed-config throughput is not evidence about the intended
            # configuration: don't judge the canary or fold this window
            # into the ratio baseline.  A pending canary stays pending
            # and is judged on the next clean window.
            return
        ws.rolled_back = self._canary_check(ws)

    def _phase_record(self, ws: WindowState) -> None:
        """Seal the window into the run summary."""
        self._redecide = ws.degraded
        ws.event = ControllerEvent(
            window_index=ws.index,
            read_ratio=ws.read_ratio,
            reconfigured=ws.reconfigured,
            configuration=self._config,
            # Downtime counts against the window's mean.
            mean_throughput=ws.mean_throughput,
            rolled_back=ws.rolled_back,
            degraded=ws.degraded,
            quarantined=ws.quarantined,
        )
        self.result.events.append(ws.event)
        self._window_index += 1
        if self.guard is not None:
            self.guard.observe_window(ws.event)

    # -- resilient operations --------------------------------------------------

    def _publish(self, topic: str, message: str, **payload) -> None:
        self.events.publish(topic, message, **payload)

    def _set_phase(self, phase: str) -> None:
        self.phase = phase
        if self.trace_phases:
            window = self._window.index if self._window is not None else None
            self._publish(
                "session.phase", f"-> {phase}", phase=phase, window=window
            )

    def _attempt(
        self, kind: str, window: int, fn: Callable[[], object]
    ) -> Tuple[bool, object, float]:
        """Run ``fn`` under the retry budget.

        Returns ``(ok, result, lost_seconds)`` where ``lost_seconds`` is
        the simulated backoff spent on retries.  Only
        :class:`TransientError` is retried; anything else escapes.
        """
        lost = 0.0
        backoff = _RETRY_BACKOFF_S
        for attempt in range(1, _RETRY_ATTEMPTS + 1):
            try:
                return True, fn(), lost
            except TransientError:
                out_of_budget = (
                    attempt >= _RETRY_ATTEMPTS
                    or lost + backoff > _RETRY_DEADLINE_S
                )
                if out_of_budget:
                    return False, None, lost
                self._publish(
                    "controller.retry",
                    f"{kind} failed (window {window}, attempt {attempt}); "
                    f"retrying after {backoff:.1f}s",
                    kind=kind,
                    window=window,
                    attempt=attempt,
                    backoff_s=backoff,
                )
                lost += backoff
                backoff *= _RETRY_BACKOFF_FACTOR
        return False, None, lost  # pragma: no cover - loop always returns

    def _decide_target(
        self, window: int, decision_rr: float
    ) -> Tuple[Optional[Configuration], float, bool]:
        """Search for the window's target config, surviving search faults.

        Returns ``(target, lost_seconds, degraded)``; a ``None`` target
        means "hold the current configuration".  A permanently failing
        search degrades to the vendor default — the paper's baseline is
        always a safe landing spot.
        """

        def do_search():
            if self._injector is not None:
                self._injector.check("search", window)
            return self.rafiki.recommend(decision_rr)

        ok, result, lost = self._attempt("search", window, do_search)
        if ok:
            return result.configuration, lost, False
        self._publish(
            "controller.degraded",
            f"search unavailable (window {window}); "
            "falling back to the default configuration",
            reason="search",
            window=window,
        )
        return self._default_config, lost, True

    def _push(self, ws: WindowState, target: Configuration) -> Tuple[bool, float]:
        """Push a configuration under the retry budget.

        ``restart_policy="rolling"`` routes the push through the
        adapter's rolling restart, recording the transient on the window
        state; ``"instant"`` applies it at once (the flat
        reconfiguration penalty is charged in EXECUTE).
        """

        def do_push():
            if self._injector is not None:
                self._injector.check("push", ws.index)
            if self.restart_policy == "rolling":
                ws.rolling_report = self.adapter.rolling_restart(
                    target, ws.read_ratio
                )
            else:
                self.adapter.apply_config(target)
            return True

        ok, _, lost = self._attempt("push", ws.index, do_push)
        return ok, lost

    def _revert_push(self, window: int, target: Configuration) -> bool:
        """Emergency revert at the window boundary.

        Always an instant apply, even under a rolling restart policy: a
        failing canary means the fleet is underperforming *now*, so the
        rollback must not spend another rolling transient.
        """

        def do_push():
            if self._injector is not None:
                self._injector.check("push", window)
            self.adapter.apply_config(target)
            return True

        ok, _, _ = self._attempt("push", window, do_push)
        return ok

    def _canary_check(self, ws: WindowState) -> bool:
        """The ratio-EWMA rollback guard.

        Unit-free: tracks the EWMA of the observed/predicted throughput
        ratio (which absorbs the single-server-surrogate vs n-node-
        cluster scale factor) and rolls back when a canary window's
        ratio undershoots that baseline by more than ``canary_margin``
        plus ``canary_std_factor`` times the ensemble's relative spread.
        """
        mean_pred, std_pred = self.rafiki.predicted_mean_std(
            ws.read_ratio, self._config
        )
        if mean_pred <= 0.0:
            self._pending_canary = None
            return False
        ratio = ws.mean_throughput / mean_pred
        if self._pending_canary is None:
            self._ratio_baseline = (
                ratio
                if self._ratio_baseline is None
                else CANARY_RATIO_ALPHA * ratio
                + (1.0 - CANARY_RATIO_ALPHA) * self._ratio_baseline
            )
            return False
        if self._ratio_baseline is None:
            # A push in the very first window has nothing to compare
            # against; accept it as the baseline.
            self._ratio_baseline = ratio
            self._pending_canary = None
            return False
        tolerance = self.canary_margin + self.canary_std_factor * (
            std_pred / mean_pred
        )
        allowed = self._ratio_baseline * max(0.0, 1.0 - tolerance)
        if ratio >= allowed:
            # Canary passed: fold the window into the baseline.
            self._ratio_baseline = (
                CANARY_RATIO_ALPHA * ratio
                + (1.0 - CANARY_RATIO_ALPHA) * self._ratio_baseline
            )
            self._pending_canary = None
            return False
        # Canary failed: restore the previous configuration.  The revert
        # happens at the window boundary (no penalty charged); the
        # undershooting window is excluded from the baseline.
        self._publish(
            "controller.rollback",
            f"canary undershot prediction (window {ws.index}): "
            f"observed/predicted {ratio:.2f} < allowed {allowed:.2f}",
            window=ws.index,
            observed=ws.mean_throughput,
            predicted=mean_pred,
            ratio=ratio,
            allowed=allowed,
            baseline=self._ratio_baseline,
        )
        revert_to = self._pending_canary
        self._pending_canary = None
        if self._revert_push(ws.index, revert_to):
            self._config = revert_to
        else:
            self._publish(
                "controller.degraded",
                f"rollback push failed (window {ws.index}); "
                "keeping the canaried configuration",
                reason="rollback-push",
                window=ws.index,
            )
        return True

    def __repr__(self) -> str:
        return (
            f"TenantSession({self.tenant_id!r}, phase={self.phase!r}, "
            f"windows={self.windows_completed})"
        )

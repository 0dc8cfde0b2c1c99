"""Scheduler layer: multiplex N tenant sessions on one simulated clock.

Rafiki pays off when the tuning loop is decoupled from per-instance
execution so models amortize across workloads (the Tuneful/WATER
observation): here one shared surrogate — and its
:class:`~repro.core.cache.RecommendationCache` — serves every tenant,
so a regime one tenant has already searched is a cache hit for all of
them.

Interleaving is deterministic by construction: tenants run in
registration order, window by window, on a shared
:class:`~repro.sim.clock.SimClock`.  The same seed and the same tenant
set (in the same order) therefore produce the identical event sequence
— the property the hypothesis tests in
``tests/test_middleware_scheduler.py`` pin down.

Every tenant's events are namespaced (``tenant.<id>.controller.*``,
``tenant.<id>.fault.*``, ``tenant.<id>.actuate.*``) via
``bus.scoped()``; the scheduler itself publishes ``scheduler.start`` /
``scheduler.window`` / ``scheduler.done``.

**The campaign's search batch.**  Every decision of an oracle,
reactive or hysteresis tenant searches one of its series' read ratios,
and every series is known when ``run`` starts.  So ``run`` opens one
``rafiki.prefetch`` around all rounds, fed each ``use_rafiki`` tenant's
clipped series: every cold regime is searched once, up front, in
row-bounded lockstep GAs, and each miss takes its result where it would
have searched — counting, caching, evicting and drawing its seed stream
exactly as the search would have — while the surrogate and the GA's
sizes are those it was searched with.
A forecast's regimes are searched on the spot.  Results, cache state
and the event log are those of searching each miss on the spot
(``tests/test_round_searches.py``), serial or sharded: the parent
prefetches, then decides.

**Sharded serve.**  Within one window round, tenant sessions are
independent except for the shared rafiki (surrogate + recommendation
cache) and the shared bus.  ``backend=`` / ``workers=`` fan each round
out across :class:`~repro.runtime.backend.ProcessPoolBackend` workers,
split at the decision.  The parent runs every served tenant's OBSERVE
and DECIDE phases itself, in registration order, against the shared
rafiki, so every ``recommend()`` hits, misses, evicts and draws its
named seed stream exactly as the serial loop's would, whatever the cache
capacity.  Each worker then finishes one decided window (ACTUATE through
RECORD) with its own copy of the round-start rafiki, pickled once per
round, which the canary asks for ``predicted_mean_std``.  Both halves
journal the tenant's events; the parent republishes them tenant by
tenant in registration order, its own journal first.  Sharded runs are
therefore bit-identical to serial: results, shared-cache state and the
whole event log (see ``tests/test_sharded_scheduler.py``).

**Overload protection.**  ``cluster_capacity=`` activates the guard
layer's admission control (see :mod:`repro.middleware.ledger`): each
round, every active tenant's window is charged with its demand estimate
(previous window's served throughput) against the shared cluster's
modeled capacity.  When aggregate demand overflows, a deterministic
priority shedder (``TenantSpec.priority`` — higher sheds first — with
error-budget-remaining, then reverse registration order, as tiebreaks)
defers whole tenant windows (``guard.shed`` events, ``shed=True``
windows) rather than letting every tenant silently degrade; whatever
overflow shedding cannot remove (or all of it, with ``shedding=False``)
scales every admitted window by the round's capacity factor.
"""

from __future__ import annotations

import math
import pickle
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.controller import ControllerRun
from repro.core.policies import DecisionPolicy, HysteresisPolicy, OraclePolicy
from repro.datastore.adapter import (
    RESTART_SECONDS_PER_NODE,
    SimulatedDatastoreAdapter,
)
from repro.datastore.base import Datastore
from repro.errors import SearchError
from repro.faults.plan import FaultPlan
from repro.middleware.guard import GuardSpec, TenantGuard
from repro.middleware.ledger import CapacityLedger
from repro.middleware.reconcile import DriftReconciler, ReconcileSpec
from repro.middleware.session import TenantSession
from repro.middleware.slo import SloSpec
from repro.runtime.backend import ExecutionBackend, resolve_backend
from repro.runtime.events import EventBus, RecordingBus
from repro.sim.clock import SimClock
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import DEFAULT_WINDOW_SECONDS


def _default_policy() -> DecisionPolicy:
    return HysteresisPolicy(OraclePolicy())


def _attach_session_bus(session: TenantSession, bus) -> None:
    """Point every bus reference a session's phases publish on at ``bus``."""
    session.events = bus
    session.adapter.events = bus
    cluster = getattr(session.adapter, "cluster", None)
    if cluster is not None:
        cluster.events = bus
    if session._injector is not None:
        session._injector.events = bus
    if session.guard is not None:
        session.guard.events = bus
    if session.reconciler is not None:
        session.reconciler.events = bus


def _shard_window_worker(task):
    """Finish one tenant's decided window in a worker process.

    The session arrives in phase ``actuate`` with its bus references
    stripped (they hold parent-side subscriber callables that must not
    travel); a recording bus takes their place so the remaining phases'
    events can be republished in the parent.  The round's rafiki pickle
    (``None`` for a static-default tenant) is unpickled into this task's
    own copy for the canary.  Returns ``(session, event_records)`` with
    the buses stripped again for the trip home.
    """
    tenant_id, session, blob = task
    if blob is not None:
        session.rafiki = pickle.loads(blob)
    recorder = RecordingBus()
    _attach_session_bus(session, recorder.scoped(f"tenant.{tenant_id}"))
    try:
        while session.advance_phase() != "idle":
            pass
    finally:
        _attach_session_bus(session, None)
        session.rafiki = None
    return session, recorder.records


@dataclass
class TenantSpec:
    """Everything the scheduler needs to host one tenant."""

    tenant_id: str
    rr_series: Sequence[float]
    base_workload: WorkloadSpec
    policy: DecisionPolicy = field(default_factory=_default_policy)
    use_rafiki: bool = True            # False = static-default baseline tenant
    n_nodes: int = 1
    replication_factor: int = 1
    seed: int = 0
    window_seconds: float = DEFAULT_WINDOW_SECONDS
    reconfiguration_penalty_s: float = 5.0
    canary_margin: Optional[float] = None
    canary_std_factor: float = 2.0
    fault_plan: Optional[FaultPlan] = None
    restart_policy: str = "instant"
    restart_seconds_per_node: float = RESTART_SECONDS_PER_NODE
    load: bool = True
    trace_phases: bool = False
    # Overload protection (all optional; None keeps the tenant unguarded):
    # lower priority = more important = shed last under admission control.
    priority: int = 0
    slo: Optional[SloSpec] = None
    guard: Optional[GuardSpec] = None
    # Verified actuation (None keeps the tenant on blind actuation).
    reconcile: Optional[ReconcileSpec] = None

    def __post_init__(self):
        # The id names the tenant's event scope (``tenant.<id>``), so
        # every dot-separated segment of it must be non-empty.
        if self.tenant_id != self.tenant_id.strip() or "" in self.tenant_id.split("."):
            raise SearchError(f"invalid tenant id {self.tenant_id!r}")
        if len(self.rr_series) == 0:
            raise SearchError(f"tenant {self.tenant_id!r} has an empty RR series")
        # ``begin_window`` clips a read ratio into [0, 1]; NaN has no place.
        for window, read_ratio in enumerate(self.rr_series):
            if math.isnan(read_ratio):
                raise SearchError(
                    f"tenant {self.tenant_id!r} has a NaN read ratio in window {window}"
                )
        if self.n_nodes < 1:
            raise SearchError("n_nodes must be >= 1")
        if not self.window_seconds > 0:
            raise SearchError(f"window_seconds must be > 0, got {self.window_seconds!r}")
        for name in (
            "reconfiguration_penalty_s", "canary_std_factor", "restart_seconds_per_node"
        ):
            value = getattr(self, name)
            if not value >= 0:
                raise SearchError(f"{name} must be >= 0, got {value!r}")
        if not (1 <= self.replication_factor <= self.n_nodes):
            raise SearchError(
                f"replication factor {self.replication_factor} must be in "
                f"[1, {self.n_nodes}]"
            )
        if self.fault_plan is not None:
            self.fault_plan.validate()
            if self.fault_plan.max_node >= self.n_nodes:
                raise SearchError(
                    f"fault plan targets node {self.fault_plan.max_node} but "
                    f"tenant {self.tenant_id!r} runs {self.n_nodes} node(s)"
                )
            if self.n_nodes == 1 and (
                self.fault_plan.node_crashes or self.fault_plan.disk_slowdowns
            ):
                raise SearchError(
                    "node crash/slowdown faults need a multi-node cluster "
                    "(n_nodes >= 2); a single server only takes "
                    "control-plane faults"
                )
            if self.n_nodes == 1 and (
                self.fault_plan.actuation_faults
                or self.fault_plan.stale_recoveries
            ):
                raise SearchError(
                    "actuation faults (partial push, stale recovery) need a "
                    "multi-node cluster (n_nodes >= 2); a single server has "
                    "no ring to drift"
                )


class MiddlewareScheduler:
    """Runs many tenant sessions in deterministic lockstep."""

    def __init__(
        self,
        datastore: Datastore,
        rafiki=None,
        *,
        events: Optional[EventBus] = None,
        backend: Optional[ExecutionBackend] = None,
        workers: Optional[int] = None,
        cluster_capacity: Optional[float] = None,
        shedding: bool = True,
    ):
        self.datastore = datastore
        self.rafiki = rafiki
        self.events = events or EventBus()
        self.clock = SimClock()
        # Up-front validation: a bad worker count would otherwise surface
        # windows later as an opaque crash inside the round loop.
        if workers is not None and workers < 1:
            raise SearchError(
                f"workers must be >= 1, got {workers} "
                "(1 = serial, N > 1 = process-pool sharded rounds)"
            )
        # backend=None and workers in (None, 1) keep the in-process
        # serial loop; an explicit backend (even SerialBackend, useful for
        # exercising the shard protocol without processes) or workers > 1
        # routes every round through the sharded path.
        if backend is not None:
            self.backend: Optional[ExecutionBackend] = backend
            self._owns_backend = False
        elif workers is not None and workers > 1:
            self.backend = resolve_backend(workers=workers)
            self._owns_backend = True
        else:
            self.backend = None
            self._owns_backend = False
        # What the sharded rounds shipped: rafiki blobs pickled (one per
        # round with a rafiki tenant), their bytes, and the bytes every
        # task carrying one added to its pickle.
        self._shipped = (
            dict(blob_ships=0, blob_bytes=0, payload_bytes=0)
            if self.backend is not None
            else None
        )
        # cluster_capacity activates admission control + the overload
        # model; None (the default) keeps runs bit-identical to the
        # unguarded scheduler.
        self.ledger = (
            CapacityLedger(cluster_capacity, shedding=shedding)
            if cluster_capacity is not None
            else None
        )
        self._tenants: Dict[str, tuple] = {}   # id -> (spec, session); ordered

    @property
    def tenant_ids(self) -> list:
        return list(self._tenants)

    def session(self, tenant_id: str) -> TenantSession:
        return self._tenants[tenant_id][1]

    def add_tenant(self, spec: TenantSpec) -> TenantSession:
        """Register a tenant; order of registration is execution order."""
        if spec.tenant_id in self._tenants:
            raise SearchError(f"duplicate tenant id {spec.tenant_id!r}")
        if spec.use_rafiki and self.rafiki is None:
            raise SearchError(
                f"tenant {spec.tenant_id!r} wants tuning but the scheduler "
                "has no shared rafiki"
            )
        scoped = self.events.scoped(f"tenant.{spec.tenant_id}")
        adapter = SimulatedDatastoreAdapter(
            self.datastore,
            n_nodes=spec.n_nodes,
            replication_factor=spec.replication_factor,
            profile=spec.base_workload.to_profile(),
            seed=spec.seed,
            restart_seconds_per_node=spec.restart_seconds_per_node,
            events=scoped,
        )
        guard = None
        if spec.slo is not None or spec.guard is not None:
            guard = TenantGuard(
                spec.tenant_id,
                slo=spec.slo,
                spec=spec.guard or GuardSpec(),
                events=scoped,
            )
        reconciler = None
        if spec.reconcile is not None:
            reconciler = DriftReconciler(
                spec.tenant_id, spec=spec.reconcile, events=scoped
            )
        session = TenantSession(
            self.datastore,
            self.rafiki if spec.use_rafiki else None,
            adapter,
            spec.policy,
            guard=guard,
            reconciler=reconciler,
            tenant_id=spec.tenant_id,
            window_seconds=spec.window_seconds,
            reconfiguration_penalty_s=spec.reconfiguration_penalty_s,
            canary_margin=spec.canary_margin,
            canary_std_factor=spec.canary_std_factor,
            events=scoped,
            fault_plan=spec.fault_plan,
            restart_policy=spec.restart_policy,
            trace_phases=spec.trace_phases,
        )
        self._tenants[spec.tenant_id] = (spec, session)
        return session

    def run(self) -> Dict[str, ControllerRun]:
        """Drive every tenant to the end of its series, in lockstep.

        Window *w* of every tenant completes before window *w+1* of any
        tenant starts; within a window round, tenants execute in
        registration order.  The shared clock advances by the longest
        active window each round.
        """
        if not self._tenants:
            raise SearchError("scheduler has no tenants")
        for spec, session in self._tenants.values():
            session.start(
                load_keys=spec.base_workload.n_keys if spec.load else None
            )
        horizon = max(len(spec.rr_series) for spec, _ in self._tenants.values())
        self.events.publish(
            "scheduler.start",
            f"{len(self._tenants)} tenant(s), {horizon} window round(s)",
            tenants=list(self._tenants),
            windows=horizon,
        )
        with self._campaign_searches():
            for w in range(horizon):
                active = [
                    tenant_id
                    for tenant_id, (spec, _) in self._tenants.items()
                    if w < len(spec.rr_series)
                ]
                round_seconds = max(
                    (self._tenants[t][0].window_seconds for t in active),
                    default=0.0,
                )
                shed, factor = self._plan_round(w, active)
                if self.backend is not None:
                    self._run_round_sharded(w, active, shed, factor)
                else:
                    for tenant_id in active:
                        spec, session = self._tenants[tenant_id]
                        if tenant_id in shed:
                            session.record_shed_window(spec.rr_series[w])
                        else:
                            session.step(spec.rr_series[w], capacity_factor=factor)
                self.clock.advance(round_seconds)
                self.events.publish(
                    "scheduler.window",
                    f"window round {w} ({len(active)} active)",
                    window=w,
                    t=self.clock.now,
                    active_tenants=active,
                )
        results = {
            tenant_id: session.finish()
            for tenant_id, (_, session) in self._tenants.items()
        }
        self.events.publish(
            "scheduler.done",
            f"campaign complete at t={self.clock.now:.0f}s",
            t=self.clock.now,
            tenants=list(results),
        )
        return results

    def _campaign_searches(self):
        """The campaign's search batch: ``rafiki.prefetch`` of every
        ``use_rafiki`` tenant's whole series, clipped as ``begin_window``
        clips (a no-op context for a rafiki without ``prefetch``)."""
        prefetch = getattr(self.rafiki, "prefetch", None)
        if prefetch is None:
            return nullcontext()
        return prefetch(
            min(max(float(rr), 0.0), 1.0)
            for spec, _ in self._tenants.values()
            if spec.use_rafiki
            for rr in spec.rr_series
        )

    # -- admission control ------------------------------------------------------

    def _demand(self, tenant_id: str) -> float:
        """Demand estimate for the next window: last served throughput."""
        events = self._tenants[tenant_id][1].result.events
        return float(events[-1].mean_throughput) if events else 0.0

    def _shed_order(self, active: Sequence[str]) -> List[str]:
        """Active tenants, most-sheddable first.

        Highest ``priority`` number sheds first; among equals the tenant
        with the most SLO error budget remaining sheds first (it can
        afford the miss — tenants without an SLO count as infinite
        budget: no promise, no protection), and later registration
        breaks the final tie.
        """
        order = list(self._tenants)

        def key(tenant_id: str):
            spec, session = self._tenants[tenant_id]
            budget = (
                session.guard.budget_remaining
                if session.guard is not None
                else float("inf")
            )
            return (-spec.priority, -budget, -order.index(tenant_id))

        return sorted(active, key=key)

    def _plan_round(self, w: int, active: Sequence[str]):
        """Admission-control one round; returns (shed tenant set, factor)."""
        if self.ledger is None:
            return frozenset(), 1.0
        demands = {t: self._demand(t) for t in active}
        shed, factor = self.ledger.plan_round(demands, self._shed_order(active))
        for tenant_id in active:      # registration order, deterministically
            if tenant_id in shed:
                spec, _ = self._tenants[tenant_id]
                self.events.publish(
                    "guard.shed",
                    f"window round {w}: shedding tenant {tenant_id!r} "
                    f"(demand {demands[tenant_id]:,.0f} ops/s, "
                    f"priority {spec.priority})",
                    tenant=tenant_id,
                    window=w,
                    demand=demands[tenant_id],
                    capacity=self.ledger.capacity,
                    priority=spec.priority,
                )
        return frozenset(shed), factor

    def guard_report(self) -> Dict[str, dict]:
        """Per-tenant overload-protection summary (after or mid-run)."""
        report = {}
        for tenant_id, (spec, session) in self._tenants.items():
            entry: dict = {
                "priority": spec.priority,
                "sheds": sum(1 for e in session.result.events if e.shed),
                "slo": None,
                "breakers": None,
            }
            guard = session.guard
            if guard is not None:
                if guard.slo is not None:
                    entry["slo"] = {
                        "attainment": guard.slo.attainment,
                        "violations": guard.slo.violations,
                        "budget_remaining": guard.slo.budget_remaining,
                        "budget_exhausted": guard.slo.budget_exhausted,
                    }
                entry["breakers"] = {
                    breaker.name: {
                        "state": breaker.state,
                        "opens": breaker.opened_count,
                        "short_circuits": breaker.short_circuits,
                    }
                    for breaker in (guard.search_breaker, guard.push_breaker)
                }
            report[tenant_id] = entry
        return report

    # -- sharded rounds ---------------------------------------------------------

    def _run_round_sharded(
        self,
        w: int,
        active: Sequence[str],
        shed: frozenset = frozenset(),
        factor: float = 1.0,
    ) -> None:
        """Decide in the parent, then fan the rest of the round out.

        Each served tenant's OBSERVE and DECIDE run here, in registration
        order, against the shared rafiki.  Workers receive the decided,
        bus-stripped sessions plus one pickle of the round-start rafiki,
        taken afresh every round.  The lockstep barrier then republishes,
        tenant by tenant, the parent's journal and the worker's.  Shed
        tenants never travel: their zero-throughput windows are recorded
        at their registration slot, exactly where the serial loop would
        have recorded them.
        """
        served = [t for t in active if t not in shed]
        blob = None
        if any(self._tenants[t][0].use_rafiki for t in served):
            blob = self._rafiki_blob()
            self._shipped["blob_ships"] += 1
            self._shipped["blob_bytes"] += len(blob)
        journals = {}
        tasks = []
        try:
            for tenant_id in served:
                spec, session = self._tenants[tenant_id]
                recorder = RecordingBus()
                _attach_session_bus(session, recorder.scoped(f"tenant.{tenant_id}"))
                session.begin_window(spec.rr_series[w], capacity_factor=factor)
                session.advance_phase()     # observe
                session.advance_phase()     # decide
                journals[tenant_id] = recorder.records
                _attach_session_bus(session, None)
                session.rafiki = None
                task_blob = blob if spec.use_rafiki else None
                if task_blob is not None:
                    self._shipped["payload_bytes"] += len(task_blob)
                tasks.append((tenant_id, session, task_blob))
            outcomes = self.backend.map_tasks(_shard_window_worker, tasks)
        finally:
            # On an error the parent-side sessions are left bus-stripped;
            # give them back their buses and the shared rafiki.
            for tenant_id in served:
                spec, session = self._tenants[tenant_id]
                self._reattach(spec, session)
        results = iter(outcomes)
        for tenant_id in active:
            spec, session = self._tenants[tenant_id]
            if tenant_id in shed:
                session.record_shed_window(spec.rr_series[w])
                continue
            session, worker_records = next(results)
            self._reattach(spec, session)
            self._tenants[tenant_id] = (spec, session)
            for topic, message, payload in journals[tenant_id] + worker_records:
                self.events.publish(topic, message, **payload)

    def _reattach(self, spec: TenantSpec, session: TenantSession) -> None:
        _attach_session_bus(
            session, self.events.scoped(f"tenant.{spec.tenant_id}")
        )
        session.rafiki = self.rafiki if spec.use_rafiki else None

    def state_report(self) -> Optional[dict]:
        """What the sharded rounds shipped so far — ``blob_ships``,
        ``blob_bytes``, ``payload_bytes`` — or None for the in-process
        serial loop."""
        return dict(self._shipped) if self._shipped is not None else None

    def close(self) -> None:
        """Release the execution backend if this scheduler created it
        (``workers=N``); an explicitly injected backend stays open —
        its lifecycle belongs to the caller."""
        if self._owns_backend and self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "MiddlewareScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _rafiki_blob(self) -> bytes:
        """Pickle the shared rafiki (it holds no bus)."""
        return pickle.dumps(self.rafiki)

    def __repr__(self) -> str:
        return (
            f"MiddlewareScheduler({self.datastore.name}, "
            f"tenants={list(self._tenants)})"
        )

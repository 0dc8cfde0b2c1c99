"""Verified actuation: per-node applied configs, drift faults, reconciliation.

Covers the full detect -> repair -> quarantine stack: config
fingerprints, the cluster's per-node applied-config state and push
fault machinery (refusals, isolation, stale rejoins), the adapter's
verify/repair surface, the new fault-plan kinds, the injector's arming
of them, the session-level reconcile phase (same-window repair, budget
escalation, telemetry quarantine), and the manifest stanza.  The two
property suites pin the satellite contracts: the reconciler never lets
drift persist silently, and a mixed-config ring's throughput is bounded
by the all-best / all-worst uniform rings.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controller import ControllerEvent
from repro.core.policies import OraclePolicy
from repro.core.search import OptimizationResult
from repro.datastore import CassandraLike
from repro.datastore.adapter import SimulatedDatastoreAdapter
from repro.datastore.cluster import Cluster
from repro.errors import (
    ActuationError,
    DatastoreError,
    FaultError,
    GuardError,
    PersistenceError,
)
from repro.faults import ActuationFault, FaultInjector, FaultPlan, StaleRecovery
from repro.middleware import (
    DriftReconciler,
    GuardSpec,
    MiddlewareScheduler,
    ReconcileSpec,
    TenantGuard,
    TenantSession,
    TenantSpec,
    parse_manifest,
    specs_from_manifest,
)
from repro.middleware.breaker import CLOSED, OPEN
from repro.middleware.slo import SloSpec
from repro.runtime import EventBus
from repro.workload.spec import WorkloadSpec

WORKLOAD = WorkloadSpec(read_ratio=0.5, n_keys=100_000)


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


class RegimeRafiki:
    """Per-regime table recommender (picklable for sharded workers)."""

    def __init__(self, datastore):
        self.datastore = datastore
        self._cache = {}

    def recommend(self, read_ratio, use_cache=True):
        key = round(read_ratio, 2)
        if key not in self._cache:
            writes = 64 if read_ratio < 0.5 else 96
            self._cache[key] = OptimizationResult(
                configuration=self.datastore.default_configuration().with_updates(
                    concurrent_writes=writes
                ),
                predicted_throughput=0.0,
                evaluations=1,
                equivalent_wall_seconds=0.0,
                strategy="table",
            )
        return self._cache[key]


def run_campaign(rr_series, fault_plan, reconcile, workers=None,
                 guard=None, seed=3):
    """One 3-node tenant campaign; returns (scheduler, run, trace)."""
    events = EventBus()
    trace = []
    events.subscribe(
        lambda e: trace.append((e.topic, tuple(sorted(e.payload.items()))))
    )
    cassandra = CassandraLike()
    scheduler = MiddlewareScheduler(
        cassandra, RegimeRafiki(cassandra), events=events, workers=workers
    )
    scheduler.add_tenant(
        TenantSpec(
            tenant_id="t",
            rr_series=rr_series,
            base_workload=WORKLOAD,
            seed=seed,
            n_nodes=3,
            window_seconds=60,
            restart_policy="rolling",
            restart_seconds_per_node=5,
            load=False,
            fault_plan=fault_plan,
            reconcile=reconcile,
            guard=guard,
        )
    )
    results = scheduler.run()
    return scheduler, results["t"], trace


def windows_of(trace, topic):
    return [
        dict(payload)["window"]
        for t, payload in trace
        if t == f"tenant.t.{topic}"
    ]


# ---------------------------------------------------------------------------
# Configuration fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_equal_configs_share_a_fingerprint(self, cassandra):
        a = cassandra.default_configuration()
        b = cassandra.default_configuration()
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_different_knobs_differ(self, cassandra):
        base = cassandra.default_configuration()
        tweaked = base.with_updates(concurrent_writes=96)
        assert base.fingerprint() != tweaked.fingerprint()

    def test_fingerprint_is_short_hex(self, cassandra):
        fp = cassandra.default_configuration().fingerprint()
        assert len(fp) == 8
        int(fp, 16)  # hex-parseable


# ---------------------------------------------------------------------------
# Cluster: per-node applied state + push fault machinery
# ---------------------------------------------------------------------------


def make_cluster(cassandra, n_nodes=3, events=None):
    return Cluster(
        cassandra,
        cassandra.default_configuration(),
        n_nodes=n_nodes,
        seed=0,
        events=events,
    )


class TestClusterActuation:
    def test_clean_push_lands_everywhere(self, cassandra):
        cluster = make_cluster(cassandra)
        target = cassandra.default_configuration().with_updates(
            concurrent_writes=96
        )
        applied, failed = cluster.apply_config(target)
        assert applied == (0, 1, 2) and failed == ()
        report = cluster.describe_drift()
        assert not report.has_drift
        assert set(report.node_fingerprints) == {target.fingerprint()}

    def test_armed_refusal_makes_a_partial_push(self, cassandra):
        cluster = make_cluster(cassandra)
        cluster.refuse_pushes(1)
        target = cassandra.default_configuration().with_updates(
            concurrent_writes=96
        )
        applied, failed = cluster.apply_config(target)
        assert applied == (0, 2) and failed == (1,)
        report = cluster.describe_drift()
        assert report.drifted_nodes == (1,)
        assert report.node_fingerprints[1] != report.intended_fingerprint
        # The refusal is consumed: the re-push lands.
        assert cluster.apply_node_config(1, target)
        assert not cluster.describe_drift().has_drift

    def test_refusals_accumulate(self, cassandra):
        cluster = make_cluster(cassandra)
        cluster.refuse_pushes(0, 2)
        target = cassandra.default_configuration().with_updates(
            concurrent_writes=64
        )
        assert not cluster.apply_node_config(0, target)
        assert not cluster.apply_node_config(0, target)
        assert cluster.apply_node_config(0, target)

    def test_refusal_count_must_be_positive(self, cassandra):
        with pytest.raises(ActuationError, match="refusal count"):
            make_cluster(cassandra).refuse_pushes(0, 0)

    def test_isolated_node_is_unreachable_until_recovery(self, cassandra):
        cluster = make_cluster(cassandra)
        cluster.isolate_node(2)
        target = cassandra.default_configuration().with_updates(
            concurrent_writes=96
        )
        assert not cluster.apply_node_config(2, target)
        cluster.recover_node(2)  # clears isolation even if not down
        assert cluster.apply_node_config(2, target)

    def test_node_index_checked(self, cassandra):
        cluster = make_cluster(cassandra)
        with pytest.raises(DatastoreError, match="out of range"):
            cluster.refuse_pushes(7)
        with pytest.raises(DatastoreError, match="out of range"):
            cluster.apply_node_config(-1, cluster.config)

    def test_down_drifted_nodes_reported_separately(self, cassandra):
        cluster = make_cluster(cassandra)
        cluster.fail_node(1)
        target = cassandra.default_configuration().with_updates(
            concurrent_writes=96
        )
        cluster.apply_config(target, nodes=(0, 2))
        report = cluster.describe_drift()
        assert not report.has_drift          # down nodes serve nothing
        assert report.down_drifted_nodes == (1,)


class TestStaleRejoinIsObservable:
    """Satellite: recovery after a push is detected, not silently served."""

    def test_drifted_rejoin_publishes_node_recovered(self, cassandra):
        events = EventBus()
        seen = []
        events.subscribe(lambda e: seen.append(e))
        cluster = make_cluster(cassandra, events=events)
        cluster.fail_node(1)
        cluster.isolate_node(1)
        target = cassandra.default_configuration().with_updates(
            concurrent_writes=96
        )
        cluster.apply_config(target)  # misses the down+isolated node
        cluster.recover_node(1)
        recoveries = [e for e in seen if e.topic == "cluster.node_recovered"]
        assert len(recoveries) == 1
        payload = recoveries[0].payload
        assert payload["node"] == 1
        assert payload["drifted"] is True
        assert payload["intended_fingerprint"] == target.fingerprint()
        assert payload["applied_fingerprint"] != target.fingerprint()
        # The rejoined node now *serves* the stale knobs: live drift.
        assert cluster.describe_drift().drifted_nodes == (1,)

    def test_clean_rejoin_stays_silent(self, cassandra):
        events = EventBus()
        seen = []
        events.subscribe(lambda e: seen.append(e))
        cluster = make_cluster(cassandra, events=events)
        cluster.fail_node(2)
        cluster.recover_node(2)  # nothing pushed while down
        assert [e for e in seen if e.topic == "cluster.node_recovered"] == []


# ---------------------------------------------------------------------------
# Adapter: verify_config / repair_config
# ---------------------------------------------------------------------------


class TestAdapterVerifyRepair:
    def make_adapter(self, cassandra, n_nodes=3, events=None):
        adapter = SimulatedDatastoreAdapter(
            cassandra, n_nodes=n_nodes, seed=0,
            restart_seconds_per_node=5, events=events,
        )
        adapter.provision(load_keys=None)
        return adapter

    def test_single_server_never_drifts(self, cassandra):
        adapter = self.make_adapter(cassandra, n_nodes=1)
        adapter.apply_config(
            cassandra.default_configuration().with_updates(concurrent_writes=96)
        )
        report = adapter.verify_config()
        assert not report.has_drift
        assert len(report.node_fingerprints) == 1

    def test_rolling_repair_heals_a_partial_push(self, cassandra):
        events = EventBus()
        seen = []
        events.subscribe(lambda e: seen.append(e))
        adapter = self.make_adapter(cassandra, events=events)
        adapter.cluster.refuse_pushes(1)
        adapter.apply_config(
            cassandra.default_configuration().with_updates(concurrent_writes=96)
        )
        report = adapter.verify_config()
        assert report.drifted_nodes == (1,)
        repair = adapter.repair_config(report.drifted_nodes, read_ratio=0.5)
        assert repair.applied_nodes == (1,)
        assert repair.failed_nodes == ()
        assert repair.duration_s > 0          # the repair charges a transient
        assert not adapter.verify_config().has_drift
        topics = [e.topic for e in seen]
        assert "actuate.repair" in topics

    def test_instant_repair_is_free(self, cassandra):
        adapter = self.make_adapter(cassandra)
        adapter.cluster.refuse_pushes(2)
        adapter.apply_config(
            cassandra.default_configuration().with_updates(concurrent_writes=64)
        )
        repair = adapter.repair_config((2,), read_ratio=0.5, rolling=False)
        assert repair.duration_s == 0.0
        assert not adapter.verify_config().has_drift

    def test_refused_repair_stays_failed(self, cassandra):
        adapter = self.make_adapter(cassandra)
        adapter.cluster.refuse_pushes(1, 2)   # push + first repair both fail
        adapter.apply_config(
            cassandra.default_configuration().with_updates(concurrent_writes=96)
        )
        repair = adapter.repair_config((1,), read_ratio=0.5)
        assert repair.failed_nodes == (1,)
        assert adapter.verify_config().drifted_nodes == (1,)

    def test_repair_rejects_protocol_misuse(self, cassandra):
        adapter = self.make_adapter(cassandra)
        with pytest.raises(ActuationError, match="at least one node"):
            adapter.repair_config((), read_ratio=0.5)
        with pytest.raises(ActuationError, match="outside the ring"):
            adapter.repair_config((7,), read_ratio=0.5)
        single = self.make_adapter(cassandra, n_nodes=1)
        with pytest.raises(ActuationError, match="single server"):
            single.repair_config((0,), read_ratio=0.5)


# ---------------------------------------------------------------------------
# Fault plan: the new kinds
# ---------------------------------------------------------------------------


class TestActuationFaultKinds:
    def test_schedules_validate(self):
        with pytest.raises(FaultError):
            ActuationFault(window=-1, node=0).validate()
        with pytest.raises(FaultError, match="repairs_blocked"):
            ActuationFault(window=0, node=0, repairs_blocked=-1).validate()
        with pytest.raises(FaultError, match="after the crash"):
            StaleRecovery(window=3, node=0, recover_window=3).validate()

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            actuation_faults=(
                ActuationFault(window=2, node=1, repairs_blocked=1),
            ),
            stale_recoveries=(
                StaleRecovery(window=1, node=2, recover_window=4),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert not plan.is_empty
        assert plan.max_node == 2

    def test_validate_checks_node_range(self):
        plan = FaultPlan(
            actuation_faults=(ActuationFault(window=0, node=5),)
        )
        plan.validate()                       # no ring size: schedule-only
        with pytest.raises(FaultError, match="node 5"):
            plan.validate(n_nodes=3)

    def test_zero_probability_draws_nothing(self):
        # Generated plans never draw actuation faults: a plan names them.
        plan = FaultPlan.generate(
            seed=11, n_windows=40, n_nodes=3, slowdown_probability=0.0,
            search_fault_probability=0.0, push_fault_probability=0.0,
        )
        assert plan.actuation_faults == () and plan.stale_recoveries == ()


class TestInjectorActuation:
    def test_partial_push_arms_refusals(self, cassandra):
        events = EventBus()
        seen = []
        events.subscribe(lambda e: seen.append(e))
        cluster = make_cluster(cassandra)
        plan = FaultPlan(
            actuation_faults=(
                ActuationFault(window=0, node=1, repairs_blocked=1),
            )
        )
        FaultInjector(plan, events=events).begin_window(0, cluster)
        topics = [e.topic for e in seen]
        assert "fault.actuation.partial_push" in topics
        target = cassandra.default_configuration().with_updates(
            concurrent_writes=96
        )
        # 1 push + 1 blocked repair = 2 armed refusals.
        assert not cluster.apply_node_config(1, target)
        assert not cluster.apply_node_config(1, target)
        assert cluster.apply_node_config(1, target)

    def test_stale_recovery_crashes_then_rejoins_stale(self, cassandra):
        events = EventBus()
        seen = []
        events.subscribe(lambda e: seen.append(e))
        cluster = make_cluster(cassandra, events=events)
        plan = FaultPlan(
            stale_recoveries=(
                StaleRecovery(window=0, node=2, recover_window=3),
            )
        )
        injector = FaultInjector(plan, events=events)
        injector.begin_window(0, cluster)
        assert cluster.down_node_indices == [2]
        target = cassandra.default_configuration().with_updates(
            concurrent_writes=96
        )
        cluster.apply_config(target)          # misses the isolated node
        injector.begin_window(3, cluster)
        topics = [e.topic for e in seen]
        assert "fault.actuation.stale_crash" in topics
        assert "fault.actuation.stale_recovery" in topics
        assert "cluster.node_recovered" in topics
        assert cluster.describe_drift().drifted_nodes == (2,)

    def test_node_faults_need_a_cluster(self):
        plan = FaultPlan(
            actuation_faults=(ActuationFault(window=0, node=1),)
        )
        with pytest.raises(FaultError, match="no multi-node cluster"):
            FaultInjector(plan).begin_window(0, cluster=None)


# ---------------------------------------------------------------------------
# Plan validation threads the ring size (satellite fix)
# ---------------------------------------------------------------------------


class TestRingSizeValidation:
    def test_session_rejects_out_of_range_plan(self, cassandra):
        adapter = SimulatedDatastoreAdapter(cassandra, n_nodes=3, seed=0)
        plan = FaultPlan(
            actuation_faults=(ActuationFault(window=0, node=7),)
        )
        with pytest.raises(FaultError, match="node 7"):
            TenantSession(
                cassandra, None, adapter, OraclePolicy(), fault_plan=plan
            )

    def test_spec_rejects_actuation_faults_on_single_node(self):
        with pytest.raises(Exception, match="multi-node"):
            TenantSpec(
                tenant_id="solo",
                rr_series=[0.5],
                base_workload=WORKLOAD,
                n_nodes=1,
                fault_plan=FaultPlan(
                    actuation_faults=(ActuationFault(window=0, node=0),)
                ),
            )


# ---------------------------------------------------------------------------
# ReconcileSpec + DriftReconciler units
# ---------------------------------------------------------------------------


class TestReconcileSpec:
    def test_validation(self):
        with pytest.raises(GuardError, match="span"):
            ReconcileSpec(span=0)
        with pytest.raises(GuardError, match="max_repairs"):
            ReconcileSpec(max_repairs=-1)

    def test_repair_budget_rolls(self):
        reconciler = DriftReconciler(
            "t", spec=ReconcileSpec(max_repairs=2, span=4)
        )
        budget = reconciler._repairs
        assert budget.allow(0)
        budget.record(0)
        budget.record(1)
        assert not budget.allow(2)   # both inside the span
        assert budget.allow(5)       # window 0 aged out

    def test_disabled_reconciler_never_reads_back(self, cassandra):
        class ExplodingAdapter(SimulatedDatastoreAdapter):
            def verify_config(self):
                raise AssertionError("no reconciler, no read-back")

        session = TenantSession(
            cassandra,
            RegimeRafiki(cassandra),
            ExplodingAdapter(cassandra, n_nodes=3, seed=0),
            OraclePolicy(),
        ).start()
        events = [session.step(rr) for rr in (0.3, 0.7)]
        assert session.reconciler is None
        assert all(e.reconfigured and not e.quarantined for e in events)


# ---------------------------------------------------------------------------
# Telemetry quarantine
# ---------------------------------------------------------------------------


def sealed(index, throughput, quarantined=False):
    return ControllerEvent(
        window_index=index,
        read_ratio=0.5,
        reconfigured=False,
        configuration=None,
        mean_throughput=throughput,
        quarantined=quarantined,
    )


class TestQuarantine:
    def test_guard_skips_quarantined_windows(self):
        guard = TenantGuard(
            "t", slo=SloSpec(throughput_floor=50_000, window_span=8)
        )
        guard.observe_window(sealed(0, 1.0, quarantined=True))
        assert guard.slo.windows_scored == 0    # neither burns nor recovers
        guard.observe_window(sealed(1, 1.0))
        assert guard.slo.windows_scored == 1

    def test_canary_keeps_pending_verdict(self, cassandra):
        class CanaryRafiki(RegimeRafiki):
            def predicted_mean_std(self, read_ratio, config):
                return 100_000.0, 0.0

        adapter = SimulatedDatastoreAdapter(cassandra, n_nodes=3, seed=0)
        session = TenantSession(
            cassandra, CanaryRafiki(cassandra), adapter, OraclePolicy(),
            canary_margin=0.1,
        )
        target = cassandra.default_configuration()
        session._pending_canary = target
        from repro.middleware.session import WindowState

        ws = WindowState(index=3, read_ratio=0.5, quarantined=True)
        ws.mean_throughput = 1.0   # would fail any canary if it were judged
        session._phase_canary(ws)
        assert session._pending_canary is target   # verdict deferred
        assert ws.rolled_back is False


# ---------------------------------------------------------------------------
# End-to-end: the session's reconcile phase
# ---------------------------------------------------------------------------


class TestSessionReconcile:
    def test_partial_push_repaired_in_its_own_window(self):
        rr = [0.3, 0.3, 0.7, 0.7, 0.7, 0.7]   # regime flip pushes at window 2
        plan = FaultPlan(
            actuation_faults=(ActuationFault(window=2, node=1),)
        )
        _, run, trace = run_campaign(rr, plan, ReconcileSpec())
        assert windows_of(trace, "actuate.drift") == [2]
        assert windows_of(trace, "actuate.reconciled") == [2]
        assert windows_of(trace, "actuate.quarantine") == [2]
        assert [e.window_index for e in run.events if e.quarantined] == [2]
        assert not any(e.degraded for e in run.events)

    def test_stale_rejoin_detected_at_the_rejoin_window(self):
        rr = [0.3, 0.3, 0.3, 0.7, 0.7, 0.7]   # push at window 3, node 2 down
        plan = FaultPlan(
            stale_recoveries=(
                StaleRecovery(window=1, node=2, recover_window=4),
            )
        )
        _, run, trace = run_campaign(rr, plan, ReconcileSpec())
        assert windows_of(trace, "actuate.drift") == [4]
        assert windows_of(trace, "actuate.reconciled") == [4]
        assert any(t == "tenant.t.cluster.node_recovered" for t, _ in trace)
        assert [e.window_index for e in run.events if e.quarantined] == [4]

    def test_exhausted_budget_degrades_and_trips_the_push_breaker(self):
        rr = [0.3, 0.3, 0.7, 0.7, 0.7]
        plan = FaultPlan(
            actuation_faults=(
                ActuationFault(window=2, node=1, repairs_blocked=5),
            )
        )
        scheduler, run, trace = run_campaign(
            rr, plan, ReconcileSpec(max_repairs=1, span=16), guard=GuardSpec()
        )
        drifts = windows_of(trace, "actuate.drift")
        assert drifts == [2, 3, 4]            # unrepaired drift persists
        assert windows_of(trace, "actuate.repair_failed") == [2]
        assert windows_of(trace, "actuate.repair_blocked") == [3, 4]
        degraded = [e.window_index for e in run.events if e.degraded]
        assert degraded == [2, 3, 4]
        reasons = [
            dict(p).get("reason")
            for t, p in trace
            if t == "tenant.t.controller.degraded"
        ]
        assert set(reasons) == {"drift"}
        assert scheduler.session("t").guard.push_breaker.state == OPEN

    def test_observe_only_mode_quarantines_without_degrading(self):
        rr = [0.3, 0.3, 0.7, 0.7]
        plan = FaultPlan(
            actuation_faults=(
                ActuationFault(window=2, node=1, repairs_blocked=5),
            )
        )
        scheduler, run, trace = run_campaign(
            rr, plan, ReconcileSpec(max_repairs=0, escalate=False),
            guard=GuardSpec(),
        )
        assert windows_of(trace, "actuate.drift") == [2, 3]
        assert not any(e.degraded for e in run.events)
        assert [e.window_index for e in run.events if e.quarantined] == [2, 3]
        assert scheduler.session("t").guard.push_breaker.state == CLOSED

    def test_sharded_serve_reproduces_the_drift_sequence(self):
        rr = [0.3, 0.3, 0.7, 0.7, 0.3, 0.3]
        plan = FaultPlan(
            actuation_faults=(ActuationFault(window=2, node=1),),
            stale_recoveries=(
                StaleRecovery(window=3, node=2, recover_window=5),
            ),
        )
        spec = ReconcileSpec(max_repairs=2, span=8)
        _, serial_run, serial_trace = run_campaign(rr, plan, spec)
        _, sharded_run, sharded_trace = run_campaign(
            rr, plan, spec, workers=2
        )
        assert serial_trace == sharded_trace
        assert [
            (e.window_index, e.mean_throughput, e.degraded, e.quarantined)
            for e in serial_run.events
        ] == [
            (e.window_index, e.mean_throughput, e.degraded, e.quarantined)
            for e in sharded_run.events
        ]

    def test_fault_free_verification_is_free(self):
        """Nothing drifts: reconciler on == off, summaries and trace."""
        rr = [0.3, 0.3, 0.7, 0.7, 0.3, 0.3]

        def outcome(reconcile, workers=None):
            _, run, trace = run_campaign(rr, None, reconcile, workers=workers)
            return [
                (e.mean_throughput, e.reconfigured, e.degraded, e.quarantined)
                for e in run.events
            ], trace

        off = outcome(None)
        assert outcome(ReconcileSpec()) == off
        assert outcome(ReconcileSpec(), workers=2) == off


# ---------------------------------------------------------------------------
# Manifest stanza
# ---------------------------------------------------------------------------


class TestManifestReconcile:
    def test_stanza_builds_the_spec(self):
        manifest = parse_manifest(
            {
                "defaults": {"hours": 0.05, "window_seconds": 60},
                "tenants": [
                    {
                        "id": "a",
                        "nodes": 3,
                        "reconcile": {"max_repairs": 2, "span": 6},
                    }
                ],
            }
        )
        (spec,) = specs_from_manifest(manifest)
        assert spec.reconcile == ReconcileSpec(max_repairs=2, span=6)

    def test_defaults_stanza_merges_keywise(self):
        manifest = parse_manifest(
            {
                "defaults": {
                    "hours": 0.05,
                    "window_seconds": 60,
                    "reconcile": {"span": 4},
                },
                "tenants": [
                    {"id": "a", "reconcile": {"max_repairs": 1}},
                    {"id": "b"},
                ],
            }
        )
        first, second = specs_from_manifest(manifest)
        assert first.reconcile == ReconcileSpec(max_repairs=1, span=4)
        assert second.reconcile == ReconcileSpec(span=4)

    def test_absent_stanza_keeps_blind_actuation(self):
        manifest = parse_manifest(
            {"defaults": {"hours": 0.05}, "tenants": [{"id": "a"}]}
        )
        (spec,) = specs_from_manifest(manifest)
        assert spec.reconcile is None

    def test_unknown_reconcile_key_rejected(self):
        with pytest.raises(PersistenceError, match=r"\[reconcile\]"):
            parse_manifest(
                {"tenants": [{"id": "a", "reconcile": {"spam": 2}}]}
            )
        with pytest.raises(PersistenceError, match=r"\[defaults.reconcile\]"):
            parse_manifest(
                {
                    "defaults": {"reconcile": {"budget": 1}},
                    "tenants": [{"id": "a"}],
                }
            )


# ---------------------------------------------------------------------------
# Properties (satellite): convergence + mixed-ring throughput bounds
# ---------------------------------------------------------------------------


class TestReconcilerConvergence:
    @given(
        seed=st.integers(min_value=0, max_value=200),
        refusals=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 1)),
            max_size=4,
        ),
        stale=st.none() | st.tuples(
            st.integers(0, 6), st.integers(0, 2), st.integers(1, 3)
        ),
    )
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_drift_is_repaired_or_degraded_never_silent(self, seed, refusals, stale):
        n_windows = 8
        rr = ([0.3, 0.3, 0.7, 0.7] * 2)[:n_windows]  # pushes every 2 windows
        plan = FaultPlan(
            actuation_faults=[ActuationFault(*refusal) for refusal in refusals],
            stale_recoveries=[]
            if stale is None
            else [StaleRecovery(stale[0], stale[1], min(stale[0] + stale[2], 7))],
        )
        _, run, trace = run_campaign(rr, plan, ReconcileSpec(), seed=seed)
        drifts = windows_of(trace, "actuate.drift")
        repaired = windows_of(trace, "actuate.reconciled")
        failed = windows_of(trace, "actuate.repair_failed")
        blocked = windows_of(trace, "actuate.repair_blocked")
        # Every detection resolves exactly one way — repaired or escalated.
        assert sorted(repaired + failed + blocked) == drifts
        assert blocked == []                   # uncapped budget never blocks
        assert windows_of(trace, "actuate.quarantine") == drifts
        # Sealed telemetry is flagged on exactly the drifted windows.
        assert [e.window_index for e in run.events if e.quarantined] == drifts
        # Escalation (degraded mode) on exactly the unrepaired windows.
        # Every window is re-verified, so drift surviving a failed repair
        # re-surfaces next window — it can never persist unobserved.
        assert [e.window_index for e in run.events if e.degraded] == failed


class TestMixedRingThroughputBounds:
    @given(
        writes_a=st.sampled_from([16, 32, 64, 96]),
        writes_b=st.sampled_from([16, 32, 64, 96]),
        mask=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        read_ratio=st.sampled_from([0.2, 0.5, 0.8]),
    )
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mixed_ring_bounded_by_uniform_rings(
        self, writes_a, writes_b, mask, read_ratio
    ):
        cassandra = CassandraLike()
        config_a = cassandra.default_configuration().with_updates(
            concurrent_writes=writes_a
        )
        config_b = cassandra.default_configuration().with_updates(
            concurrent_writes=writes_b
        )

        def uniform(config):
            ring = make_cluster(cassandra)
            ring.apply_config(config)
            return ring.sustainable_throughput(read_ratio)

        mixed_ring = make_cluster(cassandra)
        mixed_ring.apply_config(config_a)
        for node, use_b in enumerate(mask):
            if use_b:
                mixed_ring.apply_node_config(node, config_b)
        mixed = mixed_ring.sustainable_throughput(read_ratio)
        lo = min(uniform(config_a), uniform(config_b))
        hi = max(uniform(config_a), uniform(config_b))
        assert lo - 1e-6 <= mixed <= hi + 1e-6

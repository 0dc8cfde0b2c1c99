"""Fault plans and the injector: validation, determinism, application."""

import pytest

from repro.datastore import CassandraLike, Cluster
from repro.errors import FaultError, ReproError, TransientError
from repro.faults import (
    DiskSlowdown,
    FaultInjector,
    FaultPlan,
    NodeCrash,
    TransientFault,
)
from repro.middleware import TenantSpec
from repro.runtime import EventBus
from repro.workload.spec import mgrast_workload


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


def make_cluster(cassandra, n_nodes=3):
    return Cluster(
        cassandra,
        cassandra.default_configuration(),
        n_nodes=n_nodes,
        replication_factor=2,
        seed=7,
    )


class TestPlanValidation:
    def test_empty_plan(self):
        plan = FaultPlan()
        plan.validate()
        assert plan.is_empty
        assert plan.max_node == -1

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(node_crashes=[NodeCrash(window=1, node=0)])
        assert isinstance(plan.node_crashes, tuple)

    def test_recovery_before_crash_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(
                node_crashes=(NodeCrash(window=5, node=0, recover_window=5),)
            ).validate()

    def test_slowdown_factor_below_one_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(
                disk_slowdowns=(DiskSlowdown(window=0, node=0, factor=0.5),)
            ).validate()

    def test_unknown_transient_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(
                transient_faults=(TransientFault(kind="teleport", window=0),)
            ).validate()

    def test_node_range_checked_against_cluster(self):
        plan = FaultPlan(node_crashes=(NodeCrash(window=0, node=5),))
        plan.validate()  # fine without a cluster size
        with pytest.raises(FaultError):
            plan.validate(n_nodes=3)

    def test_fault_error_is_repro_error(self):
        assert issubclass(FaultError, ReproError)
        assert issubclass(TransientError, FaultError)


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(seed=42, n_windows=50, n_nodes=4)
        b = FaultPlan.generate(seed=42, n_windows=50, n_nodes=4)
        assert a == b

    def test_different_seed_different_plan(self):
        a = FaultPlan.generate(seed=1, n_windows=200, n_nodes=4)
        b = FaultPlan.generate(seed=2, n_windows=200, n_nodes=4)
        assert a != b

    def test_generated_plan_validates(self):
        plan = FaultPlan.generate(seed=3, n_windows=100, n_nodes=4)
        plan.validate(n_nodes=4)

    def test_at_most_one_node_down_at_a_time(self):
        plan = FaultPlan.generate(seed=11, n_windows=2_000, n_nodes=4)
        assert len(plan.node_crashes) > 20
        down = set()
        timeline = {}
        for crash in plan.node_crashes:
            timeline.setdefault(crash.window, []).append(("crash", crash))
            if crash.recover_window is not None:
                timeline.setdefault(crash.recover_window, []).append(("recover", crash))
        for w in sorted(timeline):
            for kind, crash in timeline[w]:
                if kind == "recover":
                    down.discard(crash.node)
            for kind, crash in timeline[w]:
                if kind == "crash":
                    down.add(crash.node)
            assert len(down) <= 1

    def test_single_node_never_crashes(self):
        plan = FaultPlan.generate(seed=5, n_windows=500, n_nodes=1)
        assert plan.node_crashes == ()

    def test_single_node_plan_at_defaults_is_valid(self):
        """One node takes no slowdown, yet the uniform is still drawn: a
        default plan is the zero-slowdown plan, and a 1-node tenant takes it."""
        for seed in range(50):
            plan = FaultPlan.generate(seed, 96)
            assert plan == FaultPlan.generate(seed, 96, slowdown_probability=0.0)
            TenantSpec(
                tenant_id="solo",
                rr_series=[0.5] * 96,
                base_workload=mgrast_workload(0.5),
                fault_plan=plan,
            )

    def test_zero_probabilities_give_empty_schedule(self):
        plan = FaultPlan.generate(
            seed=5,
            n_windows=100,
            n_nodes=1,                  # a single node never crashes
            slowdown_probability=0.0,
            search_fault_probability=0.0,
            push_fault_probability=0.0,
        )
        assert plan.is_empty

    def test_bad_inputs_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.generate(seed=0, n_windows=0)
        with pytest.raises(FaultError):
            FaultPlan.generate(seed=0, n_windows=5, n_nodes=0)


class TestPlanSerialization:
    def test_round_trip(self):
        plan = FaultPlan.generate(seed=9, n_windows=100, n_nodes=4)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_malformed_json_raises_fault_error(self):
        for text in ("{not json", "[]", "3", "null", '"plan"'):
            with pytest.raises(FaultError):
                FaultPlan.from_json(text)

    def test_malformed_fields_raise_fault_error(self):
        for payload in (
            {"node_crashes": [{"bogus_field": 1}]},
            # A misspelled or retired key must not load as an empty plan.
            {"node_crash": [{"window": 1, "node": 0}]},
            {"crash_points": [{"op": 3}]},
            {"node_crashes": [], "extra": []},
            {"node_crashes": [1]},
            {"node_crashes": 3},
        ):
            with pytest.raises(FaultError):
                FaultPlan.from_dict(payload)


class TestInjector:
    def test_crash_and_recovery_applied(self, cassandra):
        plan = FaultPlan(
            node_crashes=(NodeCrash(window=1, node=2, recover_window=3),)
        )
        cluster = make_cluster(cassandra)
        injector = FaultInjector(plan)
        injector.begin_window(0, cluster=cluster)
        assert cluster.down_node_indices == []
        injector.begin_window(1, cluster=cluster)
        assert cluster.down_node_indices == [2]
        injector.begin_window(2, cluster=cluster)
        assert cluster.down_node_indices == [2]
        injector.begin_window(3, cluster=cluster)
        assert cluster.down_node_indices == []

    def test_slowdown_applied_and_cleared(self, cassandra):
        plan = FaultPlan(
            disk_slowdowns=(
                DiskSlowdown(window=0, node=1, factor=3.0, end_window=2),
            )
        )
        cluster = make_cluster(cassandra)
        healthy = cluster.sustainable_throughput(0.5)
        injector = FaultInjector(plan)
        injector.begin_window(0, cluster=cluster)
        assert cluster.sustainable_throughput(0.5) < healthy
        injector.begin_window(1, cluster=cluster)
        injector.begin_window(2, cluster=cluster)
        assert cluster.sustainable_throughput(0.5) == healthy

    def test_node_fault_without_cluster_raises(self):
        plan = FaultPlan(node_crashes=(NodeCrash(window=0, node=0),))
        with pytest.raises(FaultError):
            FaultInjector(plan).begin_window(0, cluster=None)

    def test_transient_budget_decrements(self):
        plan = FaultPlan(
            transient_faults=(TransientFault(kind="search", window=2, failures=2),)
        )
        injector = FaultInjector(plan)
        injector.check("search", 0)  # nothing scheduled: no-op
        with pytest.raises(TransientError):
            injector.check("search", 2)
        with pytest.raises(TransientError):
            injector.check("search", 2)
        injector.check("search", 2)  # budget exhausted: operation succeeds
        injector.check("push", 2)  # other kinds unaffected

    def test_reset_restores_budgets(self):
        plan = FaultPlan(
            transient_faults=(TransientFault(kind="push", window=0, failures=1),)
        )
        injector = FaultInjector(plan)
        with pytest.raises(TransientError):
            injector.check("push", 0)
        injector.check("push", 0)
        injector.reset()
        with pytest.raises(TransientError):
            injector.check("push", 0)

    def test_events_published(self, cassandra):
        plan = FaultPlan(
            node_crashes=(NodeCrash(window=0, node=0, recover_window=1),),
            transient_faults=(TransientFault(kind="search", window=0),),
        )
        bus = EventBus()
        topics = []
        bus.subscribe(lambda e: topics.append(e.topic), topic="fault")
        cluster = make_cluster(cassandra)
        injector = FaultInjector(plan, events=bus)
        injector.begin_window(0, cluster=cluster)
        with pytest.raises(TransientError):
            injector.check("search", 0)
        injector.begin_window(1, cluster=cluster)
        assert "fault.injected" in topics
        assert "fault.recovered" in topics

    def test_unapplicable_node_fault_skipped_not_fatal(self, cassandra):
        """Crashing the last live node is refused by the cluster; the
        injector records the skip instead of killing the run."""
        plan = FaultPlan(node_crashes=(NodeCrash(window=0, node=0),))
        cluster = make_cluster(cassandra, n_nodes=2)
        cluster.fail_node(1)
        bus = EventBus()
        skipped = []
        bus.subscribe(lambda e: skipped.append(e), topic="fault.skipped")
        FaultInjector(plan, events=bus).begin_window(0, cluster=cluster)
        assert len(skipped) == 1
        assert cluster.down_node_indices == [1]

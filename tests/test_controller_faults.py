"""Self-healing control loop: retry, degraded mode, canary rollback.

Includes the acceptance scenario: a seeded FaultPlan crashing one of
four nodes mid-run must leave the loop able to finish the trace
end-to-end, emit ``controller.rollback`` when the canary undershoots,
and reproduce the identical event sequence when replayed.
"""

import pytest

from repro.core.policies import HysteresisPolicy, OraclePolicy
from repro.core.search import OptimizationResult
from repro.datastore import CassandraLike
from repro.errors import SearchError
from repro.faults import FaultPlan, NodeCrash, TransientFault
from repro.workload.spec import WorkloadSpec
from tests.conftest import TENANT_ID, run_single_tenant


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=500_000)


class FakeRafiki:
    """Two-regime recommender with a constant surrogate prediction."""

    def __init__(self, datastore, predicted=50_000.0, std=0.0):
        self.datastore = datastore
        self.predicted = predicted
        self.std = std
        self.calls = []

    def _config_for(self, read_ratio):
        if read_ratio >= 0.5:
            return self.datastore.space.configuration(
                compaction_method="LeveledCompactionStrategy",
                file_cache_size_in_mb=2048,
            )
        return self.datastore.default_configuration()

    def recommend(self, read_ratio, use_cache=True):
        self.calls.append(read_ratio)
        return OptimizationResult(
            configuration=self._config_for(read_ratio),
            predicted_throughput=self.predicted,
            evaluations=1,
            equivalent_wall_seconds=0.0,
            strategy="fake",
        )

    def predicted_mean_std(self, read_ratio, config):
        return self.predicted, self.std


def on_topic(event_log, topic):
    """The tenant's events under ``topic`` (namespace prefix added)."""
    prefix = f"tenant.{TENANT_ID}.{topic}"
    return [e for e in event_log if e.topic.startswith(prefix)]


class TestRetryAndDegraded:
    def test_transient_search_fault_healed_by_retry(self, cassandra, workload):
        plan = FaultPlan(
            transient_faults=(TransientFault(kind="search", window=0, failures=1),)
        )
        run, log = run_single_tenant(
            cassandra,
            FakeRafiki(cassandra),
            workload,
            [0.9, 0.9],
            window_seconds=60,
            fault_plan=plan,
            load=False,
        )
        assert len(on_topic(log, "controller.retry")) == 1
        assert run.events[0].reconfigured
        assert not run.events[0].degraded

    def test_exhausted_search_budget_degrades_to_default(self, cassandra, workload):
        plan = FaultPlan(
            transient_faults=(TransientFault(kind="search", window=0, failures=9),)
        )
        run, log = run_single_tenant(
            cassandra,
            FakeRafiki(cassandra),
            workload,
            [0.9, 0.9],
            window_seconds=60,
            fault_plan=plan,
            load=False,
        )
        degraded = on_topic(log, "controller.degraded")
        assert run.events[0].degraded
        assert run.events[0].configuration == cassandra.default_configuration()
        assert degraded and degraded[0].payload["reason"] == "search"
        # The fault clears after window 0: the loop recovers on its own
        # and reconfigures at the next decision point.
        assert run.events[1].reconfigured

    def test_exhausted_push_budget_keeps_current_config(self, cassandra, workload):
        plan = FaultPlan(
            transient_faults=(TransientFault(kind="push", window=0, failures=9),)
        )
        run, log = run_single_tenant(
            cassandra,
            FakeRafiki(cassandra),
            workload,
            [0.9],
            window_seconds=60,
            fault_plan=plan,
            load=False,
        )
        assert run.events[0].degraded
        assert not run.events[0].reconfigured
        assert run.events[0].configuration == cassandra.default_configuration()
        assert on_topic(log, "controller.degraded")[0].payload["reason"] == "push"

    def test_retry_backoff_charged_against_window(self, cassandra, workload):
        plan = FaultPlan(
            transient_faults=(TransientFault(kind="search", window=0, failures=2),)
        )

        def first_window(**spec_kwargs):
            run, _ = run_single_tenant(
                cassandra,
                FakeRafiki(cassandra),
                workload,
                [0.9],
                window_seconds=60,
                seed=7,
                load=False,
                **spec_kwargs,
            )
            return run.events[0].mean_throughput

        flaky = first_window(fault_plan=plan)
        assert flaky < first_window()

    def test_node_faults_require_multi_node_cluster(self, cassandra, workload):
        plan = FaultPlan(node_crashes=(NodeCrash(window=0, node=0),))
        with pytest.raises(SearchError):
            run_single_tenant(
                cassandra, None, workload, [0.5], fault_plan=plan, n_nodes=1
            )

    def test_plan_node_range_checked(self, cassandra, workload):
        plan = FaultPlan(node_crashes=(NodeCrash(window=0, node=7),))
        with pytest.raises(SearchError):
            run_single_tenant(
                cassandra, None, workload, [0.5], fault_plan=plan, n_nodes=4
            )


class TestCanaryRollback:
    SERIES = [0.2, 0.2, 0.2, 0.2, 0.9, 0.9, 0.9, 0.9]
    CRASH = FaultPlan(node_crashes=(NodeCrash(window=4, node=1, recover_window=6),))

    def run_scenario(self, cassandra, workload, rafiki=None, fault_plan=CRASH):
        return run_single_tenant(
            cassandra,
            rafiki or FakeRafiki(cassandra),
            workload,
            self.SERIES,
            window_seconds=60,
            policy=HysteresisPolicy(OraclePolicy(), min_change=0.1),
            fault_plan=fault_plan,
            n_nodes=4,
            replication_factor=2,
            canary_margin=0.05,
            canary_std_factor=2.0,
            seed=7,
            load=False,
        )

    def test_acceptance_scenario_rolls_back_and_completes(self, cassandra, workload):
        """Crash 1 of 4 nodes in the same window as a reconfiguration:
        the canary sees the throughput collapse, blames the new config,
        reverts it, and the run still completes end to end."""
        run, log = self.run_scenario(cassandra, workload)
        assert len(run.events) == len(self.SERIES)
        assert len(on_topic(log, "controller.rollback")) >= 1
        assert run.rollback_count >= 1
        assert any(
            f.payload["kind"] == "node-crash" for f in on_topic(log, "fault.injected")
        )
        rolled = next(e for e in run.events if e.rolled_back)
        # The rollback restored the pre-push configuration.
        assert rolled.configuration == cassandra.default_configuration()

    def test_event_sequence_reproducible(self, cassandra, workload):
        def one_run():
            run, log = self.run_scenario(cassandra, workload)
            seen = [
                (e.topic, e.message, tuple(sorted(e.payload.items()))) for e in log
            ]
            return seen, [
                (e.reconfigured, e.rolled_back, e.degraded, e.mean_throughput)
                for e in run.events
            ]

        first, second = one_run(), one_run()
        assert first == second

    def test_healthy_canary_does_not_roll_back(self, cassandra, workload):
        """Same trace, no faults: the push survives its canary."""
        run, log = self.run_scenario(cassandra, workload, fault_plan=None)
        assert on_topic(log, "controller.rollback") == []
        assert run.rollback_count == 0
        assert run.reconfiguration_count >= 1

    def test_canary_requires_capable_rafiki(self, cassandra, workload):
        class BareRafiki:
            def recommend(self, rr, use_cache=True):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(SearchError):
            run_single_tenant(
                cassandra, BareRafiki(), workload, [0.5], canary_margin=0.1
            )

    def test_canary_margin_validated(self, cassandra, workload):
        with pytest.raises(SearchError):
            run_single_tenant(
                cassandra, FakeRafiki(cassandra), workload, [0.5], canary_margin=1.5
            )

    def test_uncertain_surrogate_widens_tolerance(self, cassandra, workload):
        """A huge ensemble spread should suppress the rollback that a
        confident surrogate would have triggered."""
        uncertain = FakeRafiki(cassandra, std=1e9)
        run, log = self.run_scenario(cassandra, workload, rafiki=uncertain)
        assert on_topic(log, "controller.rollback") == []
        assert run.rollback_count == 0


class TestMultiNodeFaultFreeParity:
    def test_multi_node_run_completes_without_faults(self, cassandra, workload):
        run, _ = run_single_tenant(
            cassandra,
            FakeRafiki(cassandra),
            workload,
            [0.2, 0.9, 0.9],
            window_seconds=60,
            n_nodes=3,
            replication_factor=2,
            seed=7,
            load=False,
        )
        assert len(run.events) == 3
        assert all(e.mean_throughput > 0 for e in run.events)
        assert run.degraded_count == 0

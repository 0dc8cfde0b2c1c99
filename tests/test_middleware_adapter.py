"""Actuation layer: provision parity, rolling restarts, lifecycle events."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import OraclePolicy
from repro.datastore import CassandraLike
from repro.datastore.adapter import SimulatedDatastoreAdapter
from repro.errors import DatastoreError
from repro.middleware.session import TenantSession, WindowState, _unit_clip
from repro.runtime import EventBus
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=100_000)


class TestProvisionParity:
    def test_single_node_matches_direct_construction(self, cassandra, workload):
        """The adapter mints exactly the server _make_server used to."""
        adapter = SimulatedDatastoreAdapter(
            cassandra, profile=workload.to_profile(), seed=11
        )
        adapter.provision()
        via_adapter = adapter.run(0.7, 30.0, dt=1.0)

        direct = cassandra.new_analytic_instance(
            cassandra.default_configuration(),
            profile=workload.to_profile(),
            seed=11,
        )
        reference = direct.run(0.7, 30.0, dt=1.0)
        assert via_adapter == reference

    def test_multi_node_provisions_cluster(self, cassandra, workload):
        adapter = SimulatedDatastoreAdapter(
            cassandra,
            n_nodes=3,
            replication_factor=2,
            profile=workload.to_profile(),
            seed=4,
        )
        adapter.provision()
        assert adapter.cluster is not None
        assert adapter.cluster.n_nodes == 3
        steps = adapter.run(0.5, 10.0, dt=1.0)
        assert all(x > 0 for x in steps)

    def test_run_before_provision_rejected(self, cassandra):
        adapter = SimulatedDatastoreAdapter(cassandra)
        with pytest.raises(DatastoreError):
            adapter.run(0.5, 10.0)
        with pytest.raises(DatastoreError):
            adapter.apply_config(cassandra.default_configuration())

    def test_bad_construction_rejected(self, cassandra):
        with pytest.raises(DatastoreError):
            SimulatedDatastoreAdapter(cassandra, n_nodes=0)
        with pytest.raises(DatastoreError):
            SimulatedDatastoreAdapter(cassandra, restart_seconds_per_node=-1.0)
        for n_nodes, rf in ((3, 5), (1, 3), (1, 0)):
            with pytest.raises(DatastoreError, match="replication factor"):
                SimulatedDatastoreAdapter(
                    cassandra, n_nodes=n_nodes, replication_factor=rf
                )


class TestApplyConfig:
    def test_apply_config_updates_server_and_state(self, cassandra, workload):
        adapter = SimulatedDatastoreAdapter(
            cassandra, n_nodes=2, profile=workload.to_profile(), seed=0
        )
        adapter.provision()
        target = cassandra.space.configuration(
            compaction_method="LeveledCompactionStrategy"
        )
        adapter.apply_config(target)
        assert adapter.config == target
        assert adapter.cluster.config == target


class TestRollingRestart:
    def _target(self, cassandra):
        return cassandra.space.configuration(file_cache_size_in_mb=2048)

    def test_cluster_restart_charges_capacity_loss(self, cassandra, workload):
        adapter = SimulatedDatastoreAdapter(
            cassandra,
            n_nodes=3,
            profile=workload.to_profile(),
            seed=2,
            restart_seconds_per_node=5.0,
        )
        adapter.provision()
        report = adapter.rolling_restart(self._target(cassandra), read_ratio=0.5)
        assert report.nodes_restarted == 3
        assert report.skipped_nodes == ()
        assert report.duration_s == pytest.approx(15.0)
        assert report.ops_lost > 0        # a degraded ring serves less
        assert report.ops_served > 0      # ... but it does keep serving
        assert len(report.steps) == 15
        assert adapter.config == self._target(cassandra)
        assert adapter.cluster.down_node_indices == []  # everyone came back

    def test_already_down_node_is_skipped_not_resurrected(
        self, cassandra, workload
    ):
        adapter = SimulatedDatastoreAdapter(
            cassandra,
            n_nodes=3,
            profile=workload.to_profile(),
            seed=2,
            restart_seconds_per_node=5.0,
        )
        adapter.provision()
        adapter.cluster.fail_node(1)
        report = adapter.rolling_restart(self._target(cassandra), read_ratio=0.5)
        assert report.nodes_restarted == 2
        assert report.skipped_nodes == (1,)
        assert adapter.cluster.down_node_indices == [1]  # still down

    def test_single_node_restart_is_full_downtime(self, cassandra, workload):
        adapter = SimulatedDatastoreAdapter(
            cassandra,
            profile=workload.to_profile(),
            seed=2,
            restart_seconds_per_node=10.0,
        )
        adapter.provision()
        report = adapter.rolling_restart(self._target(cassandra), read_ratio=0.5)
        assert report.nodes_restarted == 1
        assert report.steps == []
        assert report.ops_served == 0.0
        assert report.duration_s == pytest.approx(10.0)
        assert report.ops_lost > 0
        assert adapter.config == self._target(cassandra)

    def test_deterministic_given_seed(self, cassandra, workload):
        def one_run():
            adapter = SimulatedDatastoreAdapter(
                cassandra,
                n_nodes=3,
                profile=workload.to_profile(),
                seed=9,
                restart_seconds_per_node=5.0,
            )
            adapter.provision()
            return adapter.rolling_restart(self._target(cassandra), 0.6)

        a, b = one_run(), one_run()
        assert a.ops_lost == b.ops_lost
        assert a.ops_served == b.ops_served
        assert a.steps == b.steps


class TestNodeCyclingPinned:
    """Rolling restart and drift repair share one node-cycling loop; the
    reports and events below were captured before the two were merged."""

    def test_partial_restart_then_repair_of_down_and_refusing_nodes(
        self, cassandra, workload
    ):
        events = EventBus()
        seen = []
        events.subscribe(seen.append, topic="actuate")
        adapter = SimulatedDatastoreAdapter(
            cassandra,
            n_nodes=3,
            replication_factor=2,
            profile=workload.to_profile(),
            seed=7,
            restart_seconds_per_node=5.0,
            events=events,
        )
        adapter.provision(load_keys=workload.n_keys, settle_seconds=10.0)
        target = cassandra.space.configuration(
            compaction_method="LeveledCompactionStrategy", concurrent_writes=96
        )
        adapter.cluster.refuse_pushes(0)
        adapter.cluster.refuse_pushes(2, 2)
        restart = adapter.rolling_restart(target, read_ratio=0.5)
        adapter.cluster.fail_node(0)
        repair = adapter.repair_config((0, 2), read_ratio=0.5)

        def fields(report):
            return (
                report.nodes_restarted, report.skipped_nodes, report.duration_s,
                report.ops_served, report.ops_lost, len(report.steps),
                report.applied_nodes, report.failed_nodes,
            )

        assert fields(restart) == (
            3, (), 15.0, 1914720.0118167403, 1098740.0012759657, 15, (1,), (0, 2)
        )
        assert fields(repair) == (
            1, (0,), 5.0, 436122.5239938789, 140558.02550790895, 5, (0,), (2,)
        )
        assert adapter.cluster.down_node_indices == [0]  # not resurrected
        assert adapter.verify_config().drifted_nodes == (2,)
        assert [(e.topic, e.message, e.payload) for e in seen[1:]] == [
            (
                "actuate.rolling_restart",
                "rolling restart: 3 node(s) in 15s, 1,098,740 ops of capacity lost",
                dict(
                    nodes_restarted=3, skipped_nodes=(), duration_s=15.0,
                    ops_served=1914720.0118167403, ops_lost=1098740.0012759657,
                    applied_nodes=(1,), failed_nodes=(0, 2),
                ),
            ),
            (
                "actuate.repair",
                "drift repair: re-pushed 1/2 node(s) in 5s "
                "(140,558 ops of capacity lost)",
                dict(
                    nodes=(0, 2), applied_nodes=(0,), failed_nodes=(2,),
                    duration_s=5.0, ops_lost=140558.02550790895,
                ),
            ),
        ]


class TestLifecycleEvents:
    def test_actuation_topics_published(self, cassandra, workload):
        events = EventBus()
        seen = []
        events.subscribe(seen.append, topic="actuate")
        adapter = SimulatedDatastoreAdapter(
            cassandra,
            n_nodes=2,
            profile=workload.to_profile(),
            seed=0,
            restart_seconds_per_node=2.0,
            events=events,
        )
        adapter.provision()
        adapter.rolling_restart(
            cassandra.space.configuration(file_cache_size_in_mb=2048), 0.5
        )
        adapter.teardown()
        assert [e.topic for e in seen] == [
            "actuate.provision",
            "actuate.rolling_restart",
            "actuate.teardown",
        ]
        restart = seen[1]
        assert restart.payload["nodes_restarted"] == 2
        assert restart.payload["ops_lost"] >= 0


class TestWindowWithNoTimeLeft:
    """A window whose time is all lost (retry backoff, restart, repair)
    serves nothing more: both execute branches share one guard."""

    def _session(self, cassandra, n_nodes, **kwargs):
        adapter = SimulatedDatastoreAdapter(
            cassandra, n_nodes=n_nodes, seed=4, restart_seconds_per_node=20.0
        )
        session = TenantSession(
            cassandra, None, adapter, OraclePolicy(), window_seconds=60.0, **kwargs
        )
        session.start()
        return session, adapter

    def test_fractional_penalty_serves_only_whole_seconds_left(self, cassandra):
        """57.5 s left serves 57 one-second steps, not a rounded-up 58."""
        session, adapter = self._session(
            cassandra, n_nodes=1, reconfiguration_penalty_s=2.5
        )
        ws = WindowState(index=0, read_ratio=0.5, reconfigured=True)
        session._phase_execute(ws)
        assert len(ws.steps) == 57 and adapter.server.t == 57.0
        assert ws.mean_throughput == sum(ws.steps) / 60.0

    def test_backoff_consumes_the_whole_window(self, cassandra):
        session, adapter = self._session(cassandra, n_nodes=1)
        ws = WindowState(index=0, read_ratio=0.5, retry_lost=75.0)
        session._phase_execute(ws)
        assert ws.steps == [] and ws.mean_throughput == 0.0
        assert adapter.server.t == 0.0 and adapter.server.total_ops == 0.0

    def test_less_than_one_step_left_serves_nothing(self, cassandra):
        session, adapter = self._session(cassandra, n_nodes=1)
        ws = WindowState(index=0, read_ratio=0.5, retry_lost=59.5)
        session._phase_execute(ws)
        assert ws.steps == [] and adapter.server.t == 0.0

    def test_partial_backoff_serves_the_rest(self, cassandra):
        session, adapter = self._session(cassandra, n_nodes=1)
        ws = WindowState(index=0, read_ratio=0.5, retry_lost=45.0)
        session._phase_execute(ws)
        assert len(ws.steps) == 15 and adapter.server.t == 15.0

    def test_restart_consumes_the_whole_window(self, cassandra):
        session, adapter = self._session(cassandra, n_nodes=3)
        target = cassandra.space.configuration(file_cache_size_in_mb=2048)
        ws = WindowState(index=0, read_ratio=0.5)
        ws.rolling_report = adapter.rolling_restart(target, read_ratio=0.5)
        assert ws.rolling_report.duration_s == 60.0
        session._phase_execute(ws)
        assert ws.steps == ws.rolling_report.steps
        assert adapter.cluster.t == 60.0


class TestReadRatioClip:
    """A window's read ratio is ``float(np.clip(rr, 0.0, 1.0))``; in range
    it skips the numpy call, and must still equal it bit for bit."""

    @staticmethod
    def assert_clips_like_numpy(x):
        got, want = _unit_clip(x), float(np.clip(x, 0.0, 1.0))
        assert type(got) is float and got.hex() == want.hex()

    @pytest.mark.parametrize(
        "x",
        [-0.0, 0.0, 1.0, 5e-324, -5e-324, math.nextafter(1.0, 2.0), math.inf,
         -math.inf, math.nan, 0.3, 1, True, np.float64(0.25)],
    )
    def test_edges(self, x):
        self.assert_clips_like_numpy(x)

    @given(x=st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, x):
        self.assert_clips_like_numpy(x)

    def test_windows_read_the_clip(self, cassandra):
        session = TenantSession(
            cassandra, None, SimulatedDatastoreAdapter(cassandra, seed=4), OraclePolicy()
        )
        session.start()
        assert session.record_shed_window(-5e-324).read_ratio.hex() == "0x0.0p+0"
        assert session.begin_window(-0.0).read_ratio.hex() == "-0x0.0p+0"

import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.datastore import CassandraLike, Cluster, ScyllaLike
from repro.datastore.cluster import SHOOTER_CAPACITY_OPS
from repro.datastore.scylla import ScyllaAutotuner
from repro.errors import DatastoreError
from repro.lsm.analytic import AnalyticLSMModel
from repro.lsm.engine import LSMEngine
from repro.workload.spec import mgrast_workload


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def scylla():
    return ScyllaLike()


class TestCassandraLike:
    def test_space_and_key_parameters(self, cassandra):
        assert len(cassandra.key_parameters) == 5
        assert all(p in cassandra.space for p in cassandra.key_parameters)

    def test_knobs_honour_configuration(self, cassandra):
        cfg = cassandra.space.configuration(concurrent_writes=64)
        assert cassandra.effective_knobs(cfg).concurrent_writes == 64

    def test_new_analytic_instance(self, cassandra):
        model = cassandra.new_analytic_instance(cassandra.default_configuration())
        assert isinstance(model, AnalyticLSMModel)

    def test_new_engine_instance(self, cassandra):
        engine = cassandra.new_engine_instance(cassandra.default_configuration())
        assert isinstance(engine, LSMEngine)
        engine.put("k", b"v")
        assert engine.get("k") == b"v"

    def test_instances_independent(self, cassandra):
        a = cassandra.new_analytic_instance(cassandra.default_configuration(), seed=1)
        b = cassandra.new_analytic_instance(cassandra.default_configuration(), seed=1)
        a.run(0.5, 1)
        assert b.t == 0.0


class TestScyllaLike:
    def test_autotuner_overrides_user_values(self, scylla):
        """§4.10: 'user settings ... are ignored by ScyllaDB'."""
        lo = scylla.space.configuration(concurrent_writes=16)
        hi = scylla.space.configuration(concurrent_writes=96)
        assert (
            scylla.effective_knobs(lo).concurrent_writes
            == scylla.effective_knobs(hi).concurrent_writes
        )

    def test_non_autotuned_values_respected(self, scylla):
        cfg = scylla.space.configuration(memtable_cleanup_threshold=0.4)
        assert scylla.effective_knobs(cfg).memtable_cleanup_threshold == pytest.approx(0.4)

    def test_throughput_oscillates(self, scylla):
        model = scylla.new_analytic_instance(scylla.default_configuration(), seed=2)
        model.load(1_000_000)
        tps = model.run(0.7, 200)
        cov = np.std(tps) / np.mean(tps)
        assert cov > 0.05

    def test_every_solve_is_modulated(self, scylla):
        """One hook: the instant solve, the stepping loop and a ring's
        node solve all see the tuner's level (doubling is exact; the ring
        stays under its two shooters at both levels)."""
        def solves(level):
            config = scylla.default_configuration()
            solo = scylla.new_analytic_instance(config, seed=3, noise_sigma=0.0)
            ring = Cluster(scylla, config, n_nodes=2, seed=2)
            for target in (solo, ring):
                target.load(500_000)
            for model in (solo, *ring.nodes):
                model.autotuner.multiplier = lambda t: level
            return [
                solo.sustainable_throughput(0.7),
                solo.run(0.7, 3)[0],
                ring.sustainable_throughput(0.7),
                ring.run(0.7, 3)[0],
            ]

        assert [2.0 * x for x in solves(0.5)] == solves(1.0)

    def test_ring_is_modulated_per_node(self, scylla):
        ring = Cluster(
            scylla, scylla.default_configuration(), n_nodes=3,
            replication_factor=2, seed=2,
        )
        ring.load(1_500_000)
        tps = ring.run(0.7, 400)
        assert np.std(tps) / np.mean(tps) > 0.05
        # Every node's own tuner ran, each on its own realization.
        levels = [node.autotuner._level for node in ring.nodes]
        assert all(node.autotuner._until > 0 for node in ring.nodes)
        assert len(set(levels)) == len(levels)

    def test_scylla_noisier_than_cassandra(self, scylla, cassandra):
        """Figure 10: ScyllaDB fluctuates much more than Cassandra."""
        def cov(store, seed):
            m = store.new_analytic_instance(store.default_configuration(), seed=seed)
            m.load(1_000_000)
            m.cache_age = 1000.0
            tps = m.run(0.7, 300)
            return np.std(tps) / np.mean(tps)

        scylla_cov = np.mean([cov(scylla, s) for s in range(3)])
        cassandra_cov = np.mean([cov(cassandra, s) for s in range(3)])
        assert scylla_cov > 1.5 * cassandra_cov

    def test_tuner_realization_depends_on_config(self, scylla):
        a = scylla.new_analytic_instance(scylla.default_configuration(), seed=1)
        b = scylla.new_analytic_instance(
            scylla.space.configuration(memtable_cleanup_threshold=0.33), seed=1
        )
        ta = [a.autotuner.multiplier(t) for t in range(0, 500, 10)]
        tb = [b.autotuner.multiplier(t) for t in range(0, 500, 10)]
        assert ta != tb


class TestScyllaAutotuner:
    def test_piecewise_constant(self):
        tuner = ScyllaAutotuner(seed=3)
        m0 = tuner.multiplier(0.0)
        m1 = tuner.multiplier(0.001)
        assert m0 == m1

    def test_levels_bounded(self):
        tuner = ScyllaAutotuner(seed=4)
        levels = [tuner.multiplier(float(t)) for t in range(0, 2000, 5)]
        assert min(levels) >= 0.55
        assert max(levels) <= 1.6

    def test_levels_change_over_time(self):
        tuner = ScyllaAutotuner(seed=5)
        levels = {round(tuner.multiplier(float(t)), 6) for t in range(0, 2000, 5)}
        assert len(levels) > 5


class TestCluster:
    def test_validation(self, cassandra):
        cfg = cassandra.default_configuration()
        with pytest.raises(DatastoreError):
            Cluster(cassandra, cfg, n_nodes=0)
        with pytest.raises(DatastoreError):
            Cluster(cassandra, cfg, n_nodes=2, replication_factor=3)

    def test_two_nodes_rf1_scale_reads(self, cassandra):
        cfg = cassandra.default_configuration()
        single = Cluster(cassandra, cfg, n_nodes=1, seed=1)
        double = Cluster(cassandra, cfg, n_nodes=2, seed=1)
        for c in (single, double):
            c.load(1_000_000)
            c.settle()
            for n in c.nodes:
                n.cache_age = 1000.0
        assert double.sustainable_throughput(1.0) > 1.5 * single.sustainable_throughput(1.0)

    def test_replication_taxes_writes(self, cassandra):
        """RF=2 means every write lands twice; write-heavy barely gains
        from the second server (the paper's Table 3 RR=10% row)."""
        cfg = cassandra.default_configuration()
        rf1 = Cluster(cassandra, cfg, n_nodes=2, replication_factor=1, seed=1)
        rf2 = Cluster(cassandra, cfg, n_nodes=2, replication_factor=2, seed=1)
        for c in (rf1, rf2):
            c.load(1_000_000)
        assert rf2.sustainable_throughput(0.0) < rf1.sustainable_throughput(0.0)

    def test_shooter_capacity_caps(self, scylla):
        """One shooter per node bounds the ring's logical throughput."""
        ring = Cluster(scylla, scylla.default_configuration(), n_nodes=2, seed=2)
        ring.load(500_000)
        for node in ring.nodes:
            node.autotuner.multiplier = lambda t: 4.0
        assert ring.sustainable_throughput(0.7) == 2 * SHOOTER_CAPACITY_OPS

    def test_step_and_run(self, cassandra):
        cfg = cassandra.default_configuration()
        cluster = Cluster(cassandra, cfg, n_nodes=2, replication_factor=2, seed=1)
        cluster.load(500_000)
        series = cluster.run(0.5, duration=20)
        assert len(series) == 20
        assert all(x > 0 for x in series)
        assert cluster.t == pytest.approx(20.0)

    def test_example_and_bench_callers_run(self, cassandra):
        """The ``cluster_throughput`` helpers of two callers no CI job
        runs: the same ring on the same seed gives both the same mean."""
        from benchmarks.test_table3_multi_server import cluster_throughput as bench

        path = Path(__file__).parent.parent / "examples" / "multi_server_scaling.py"
        spec = importlib.util.spec_from_file_location("multi_server_scaling", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        config = cassandra.default_configuration()
        got = example.cluster_throughput(cassandra, config, 0.5, n_nodes=2, seed=7)
        assert got > 0
        assert got == bench(cassandra, config, 0.5, 2, mgrast_workload(0.5), seed=7)

    @pytest.mark.parametrize("duration", [0, -1.0])
    def test_run_with_no_time_left_raises(self, cassandra, duration):
        cfg = cassandra.default_configuration()
        cluster = Cluster(cassandra, cfg, n_nodes=2, replication_factor=2, seed=1)
        with pytest.raises(ValueError):
            cluster.run(0.5, duration=duration)
        assert cluster.t == 0.0
        assert all(n.total_ops == 0.0 for n in cluster.nodes)

    def test_nodes_absorb_replicated_writes(self, cassandra):
        cfg = cassandra.default_configuration()
        cluster = Cluster(cassandra, cfg, n_nodes=2, replication_factor=2, seed=1)
        cluster.run(0.0, duration=120)
        assert all(n.memtable_bytes > 0 or n.total_flushes > 0 for n in cluster.nodes)


class TestClusterFaults:
    def make(self, cassandra, n_nodes=3, rf=2):
        cluster = Cluster(
            cassandra,
            cassandra.default_configuration(),
            n_nodes=n_nodes,
            replication_factor=rf,
            seed=1,
        )
        cluster.load(600_000)
        return cluster

    def test_failed_node_reduces_throughput(self, cassandra):
        cluster = self.make(cassandra)
        healthy = cluster.sustainable_throughput(0.5)
        cluster.fail_node(1)
        assert cluster.live_node_indices == [0, 2]
        assert cluster.down_node_indices == [1]
        assert cluster.sustainable_throughput(0.5) < healthy

    def test_recovery_restores_capacity(self, cassandra):
        cluster = self.make(cassandra)
        healthy = cluster.sustainable_throughput(0.5)
        cluster.fail_node(0)
        cluster.recover_node(0)
        assert cluster.down_node_indices == []
        assert cluster.sustainable_throughput(0.5) == pytest.approx(healthy)

    def test_cannot_fail_last_live_node(self, cassandra):
        cluster = self.make(cassandra, n_nodes=2, rf=1)
        cluster.fail_node(0)
        with pytest.raises(DatastoreError):
            cluster.fail_node(1)
        # The refused call must not have poisoned the down-set.
        assert cluster.down_node_indices == [0]
        # Re-failing an already-down node stays legal (idempotent).
        cluster.fail_node(0)

    def test_node_index_validated(self, cassandra):
        cluster = self.make(cassandra)
        with pytest.raises(DatastoreError):
            cluster.fail_node(9)
        with pytest.raises(DatastoreError):
            cluster.recover_node(-1)

    def test_down_node_serves_nothing_in_step(self, cassandra):
        cluster = self.make(cassandra)
        cluster.fail_node(2)
        before = [pickle.dumps(node) for node in cluster.nodes]
        [x] = cluster.run(0.5, 1)
        after = [pickle.dumps(node) for node in cluster.nodes]
        assert x > 0
        assert [a != b for a, b in zip(before, after)] == [True, True, False]

    def test_disk_slowdown_drags_cluster(self, cassandra):
        cluster = self.make(cassandra)
        healthy = cluster.sustainable_throughput(0.5)
        cluster.set_disk_slowdown(0, 4.0)
        degraded = cluster.sustainable_throughput(0.5)
        assert degraded < healthy
        cluster.set_disk_slowdown(0, 1.0)  # factor 1 clears
        assert cluster.sustainable_throughput(0.5) == pytest.approx(healthy)

    def test_slowdown_factor_validated(self, cassandra):
        cluster = self.make(cassandra)
        with pytest.raises(DatastoreError):
            cluster.set_disk_slowdown(0, 0.5)

    def test_reconfigure_reaches_down_nodes(self, cassandra):
        cluster = self.make(cassandra)
        cluster.fail_node(1)
        config = cassandra.space.configuration(concurrent_reads=64)
        assert cluster.apply_config(config) == ((0, 1, 2), ())
        cluster.recover_node(1)
        assert all(
            n.knobs.concurrent_reads == 64 for n in cluster.nodes
        )

    def test_all_nodes_down_rejected_in_capacity_math(self, cassandra):
        cluster = self.make(cassandra, n_nodes=2, rf=1)
        cluster._down = {0, 1}  # unreachable via fail_node; simulate anyway
        with pytest.raises(DatastoreError):
            cluster.sustainable_throughput(0.5)


class TestClusterLoadDistribution:
    @staticmethod
    def loaded_keys(cluster, n_keys):
        """Record what cluster.load hands each node."""
        per_node = []
        for node in cluster.nodes:
            node.load = per_node.append  # type: ignore[method-assign]
        cluster.load(n_keys)
        return per_node

    def test_total_replicas_conserved(self, cassandra):
        """The divmod fix: n_keys x RF replicas land in total even when
        the division leaves a remainder."""
        cluster = Cluster(
            cassandra,
            cassandra.default_configuration(),
            n_nodes=3,
            replication_factor=2,
            seed=1,
        )
        per_node = self.loaded_keys(cluster, 1_000_001)  # 2_000_002 over 3
        assert sum(per_node) == 1_000_001 * 2
        assert max(per_node) - min(per_node) <= 1

    def test_even_split_unchanged(self, cassandra):
        cluster = Cluster(
            cassandra,
            cassandra.default_configuration(),
            n_nodes=4,
            replication_factor=2,
            seed=1,
        )
        assert self.loaded_keys(cluster, 1_000_000) == [500_000] * 4

"""Property-based tests on the analytic model's invariants."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import cassandra_space
from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.datastore import CassandraLike, Cluster, ScyllaLike
from repro.datastore.cluster import SHOOTER_CAPACITY_OPS, ClusterStepResult
from repro.lsm.analytic import (
    CACHE_WARMUP_SECONDS,
    AnalyticLSMModel,
    StepResult,
    WorkloadProfile,
    _soft_min,
)
from repro.lsm.knobs import EngineKnobs
from repro.lsm.sstable import BLOCK_BYTES
from repro.sim import costs

SPACE = cassandra_space()

OVERRIDES = {
    "compaction_method": st.sampled_from([SIZE_TIERED, LEVELED]),
    "concurrent_writes": st.integers(min_value=16, max_value=96),
    "file_cache_size_in_mb": st.integers(min_value=32, max_value=2048),
    "memtable_cleanup_threshold": st.floats(min_value=0.1, max_value=0.5),
    "concurrent_compactors": st.integers(min_value=1, max_value=8),
}

config_overrides = st.fixed_dictionaries(OVERRIDES)


def make_model(overrides, seed=0):
    cfg = SPACE.configuration(**overrides)
    return AnalyticLSMModel(
        EngineKnobs.from_configuration(cfg),
        seed=seed,
        noise_sigma=0.0,
        run_bias_sigma=0.0,
    )


class TestAnalyticInvariants:
    @given(overrides=config_overrides, rr=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_throughput_positive_and_bounded(self, overrides, rr):
        model = make_model(overrides)
        model.load(1_000_000)
        x = model.sustainable_throughput(rr)
        assert 1.0 <= x < 1e7

    @given(overrides=config_overrides)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_structure_counts_never_negative(self, overrides):
        model = make_model(overrides)
        model.load(2_000_000)
        for rr in (0.0, 0.5, 1.0):
            model.run(rr, duration=30)
            assert model.memtable_bytes >= 0
            assert model.sstable_count >= 0
            assert all(s >= 0 for s in model.st_tables)
            assert all(b >= -1e-6 for b in model.level_bytes)
            assert model.compaction_backlog_bytes >= 0

    @given(overrides=config_overrides)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_settle_drains_backlog(self, overrides):
        model = make_model(overrides)
        model.load(2_000_000)
        model.run(0.0, duration=60)
        model.settle(max_seconds=50_000)
        assert model.compaction_backlog_bytes == 0.0

    @given(overrides=config_overrides, seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_strategy_switch_conserves_bytes(self, overrides, seed):
        model = make_model(overrides, seed=seed)
        model.load(2_000_000)
        model.settle(max_seconds=50_000)
        before = sum(model.st_tables) + sum(model.level_bytes) + sum(model.l0_tables)
        other = LEVELED if not model.is_leveled else SIZE_TIERED
        cfg = SPACE.configuration(**{**overrides, "compaction_method": other})
        model.reconfigure(EngineKnobs.from_configuration(cfg))
        after = sum(model.st_tables) + sum(model.level_bytes) + sum(model.l0_tables)
        assert after == pytest.approx(before, rel=1e-6)

    @given(overrides=config_overrides)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cache_hit_is_probability(self, overrides):
        model = make_model(overrides)
        model.load(1_000_000)
        model.run(0.5, duration=100)
        assert 0.0 <= model.cache_hit_ratio() <= 1.0

    @given(
        overrides=config_overrides,
        writes=st.floats(min_value=0, max_value=1e6),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_flush_accounting(self, overrides, writes):
        """Bytes written land in the memtable or flushed tables exactly."""
        model = make_model(overrides)
        model._apply_writes(writes, all_inserts=True)
        stored = (
            model.memtable_bytes
            + sum(model.st_tables)
            + sum(model.l0_tables)
            + sum(model.level_bytes)
        )
        assert stored == pytest.approx(writes * model.profile.record_bytes, rel=1e-9)


# ---------------------------------------------------------------------------
# The production solve against the equation evaluated with no term table
# ---------------------------------------------------------------------------


def soft_min_oracle(caps):
    """The power-mean soft minimum, on python floats only."""
    finite = [c for c in caps if not (math.isinf(c) or math.isnan(c))]
    if not finite:
        return math.inf
    scale = min(finite)
    if scale <= 0:
        return 0.0
    total = 0.0
    for c in finite:
        total += math.pow(scale / c, 8.0)
    return scale * math.pow(total, -1.0 / 8.0)


def soft_min_numpy(caps):
    """The array formula the model used before it went scalar."""
    finite = np.array([c for c in caps if np.isfinite(c)], dtype=float)
    if finite.size == 0:
        return float("inf")
    scale = finite.min()
    if scale <= 0:
        return 0.0
    return float(scale * np.power(np.sum((scale / finite) ** 8.0), -1.0 / 8.0))


def reference_hit(model):
    """The cache hit ratio at this instant, from the knobs and profile."""
    knobs, sim_costs = model.knobs, model.costs
    pages = knobs.file_cache_bytes / BLOCK_BYTES
    if pages <= 0:
        return 0.0
    if max(model.dataset_bytes / BLOCK_BYTES, 1.0) <= pages:
        steady = 1.0
    else:
        coverage = sim_costs.cache_coverage_ops_per_page
        if knobs.compaction_method == LEVELED:
            coverage *= sim_costs.leveled_cache_locality
        steady = 1.0 - math.exp(-pages * coverage / model.profile.krd_mean_ops)
    return steady * (1.0 - math.exp(-model.cache_age / CACHE_WARMUP_SECONDS))


def reference_throughput(model, read_ratio):
    """The bottleneck equation straight from ``sim.costs``: every term
    recomputed from the model's knobs, hardware, costs and profile."""
    knobs, hardware, sim_costs, profile = (
        model.knobs, model.hardware, model.costs, model.profile
    )
    r, w = read_ratio, 1.0 - read_ratio
    hit = reference_hit(model)

    if knobs.compaction_method == LEVELED:
        n_checked = len(model.l0_tables) + sum(1 for b in model.level_bytes[1:] if b > 0)
    else:
        n_checked = float(len(model.st_tables))
    spread = costs.expected_version_spread(max(n_checked, 1.0), profile.update_fraction)
    probed = min(
        spread + knobs.bloom_fp_chance * max(n_checked - spread, 0.0),
        max(n_checked, 1.0),
    )
    disk_probes = costs.expected_disk_probes_per_read(
        spread, n_checked, knobs.bloom_fp_chance, hit
    )
    cpu_r = costs.read_cpu_seconds(n_checked, probed, probed * hit, sim_costs)
    cpu_w = costs.write_cpu_seconds(sim_costs)

    comp_rate = model._compaction_rate()
    flush_active = model.memtable_bytes > 0.5 * knobs.flush_trigger_bytes
    flush_rate = (
        knobs.memtable_flush_writers * sim_costs.flush_writer_bandwidth
        if flush_active
        else 0.0
    ) * 0.5
    seq_demand = comp_rate * sim_costs.compaction_io_factor + flush_rate
    bg_seq = min(seq_demand / hardware.disk_seq_bandwidth, 0.9)
    bg_cpu = min(comp_rate * sim_costs.compaction_cpu_per_byte / hardware.cpu_cores, 0.6)
    cores = max(hardware.cpu_cores * (1.0 - bg_cpu) * (hardware.cpu_ghz / 3.0), 0.5)

    cpu_per_op = (
        r * cpu_r * costs.thread_contention(knobs.concurrent_reads, cores, sim_costs)
        + w * cpu_w * costs.thread_contention(knobs.concurrent_writes, cores, sim_costs)
    )
    caps = [cores / cpu_per_op if cpu_per_op > 0 else math.inf]
    if w > 0:
        cl_bytes = costs.commitlog_bytes_per_write(profile.record_bytes, sim_costs)
        caps.append(hardware.disk_seq_bandwidth * (1.0 - bg_seq) / (w * cl_bytes))
        flush_bw = knobs.memtable_flush_writers * sim_costs.flush_writer_bandwidth
        caps.append(flush_bw / (w * profile.record_bytes))
        caps.append(knobs.concurrent_writes / (w * sim_costs.write_thread_hold))
    if r > 0:
        iops = hardware.disk_rand_iops * hardware.disk_count
        if r * disk_probes > 0:
            caps.append(iops / (r * disk_probes))
        if r * sim_costs.read_thread_hold > 0:
            caps.append(knobs.concurrent_reads / (r * sim_costs.read_thread_hold))
    return max(soft_min_oracle(caps) * model.run_bias, 1.0)


# ---------------------------------------------------------------------------
# The per-second oracle: ``step`` and ``Cluster.step`` as they were written
# before the stepping loop, on the untabled solve
# ---------------------------------------------------------------------------


def oracle_solve(model, read_ratio):
    """The untabled equation, times a self-tuning store's modulation."""
    x = reference_throughput(model, read_ratio)
    tuner = getattr(model, "autotuner", None)
    return x if tuner is None else x * tuner.multiplier(model.t)


def oracle_absorb(model, reads, writes, dt):
    """The general write and drain paths, then the clocks."""
    model._apply_writes(writes)
    model._drain_background(dt)
    model.t += dt
    model.cache_age += dt
    model.total_ops += reads + writes


def oracle_step(model, read_ratio, dt=1.0):
    """One solve, one noise draw, one absorb, and a ``StepResult`` read
    back off the model."""
    x = oracle_solve(model, read_ratio)
    if model.noise_sigma > 0:
        x *= max(0.2, 1.0 + model.noise_sigma * model.rng.standard_normal())
    reads = x * read_ratio * dt
    writes = x * (1.0 - read_ratio) * dt
    read_rate = x * read_ratio
    write_rate = x * (1.0 - read_ratio)
    read_lat = (
        max(model.knobs.concurrent_reads / read_rate, model.costs.read_thread_hold)
        if read_rate > 0
        else 0.0
    )
    write_lat = (
        max(model.knobs.concurrent_writes / write_rate, model.costs.write_thread_hold)
        if write_rate > 0
        else 0.0
    )
    oracle_absorb(model, reads, writes, dt)
    return StepResult(
        t=model.t,
        dt=dt,
        throughput=x,
        reads=reads,
        writes=writes,
        sstable_count=model.sstable_count,
        cache_hit_ratio=reference_hit(model),
        compaction_backlog_bytes=model.compaction_backlog_bytes,
        read_latency_s=read_lat,
        write_latency_s=write_lat,
    )


def oracle_cluster_step(cluster, read_ratio, dt=1.0):
    """``Cluster._solve`` + ``Cluster.step`` as they were: everything
    re-derived every second, each node solved through the oracle."""
    live = cluster.live_node_indices
    rf = min(cluster.replication_factor, len(live))
    node_reads = read_ratio * min(cluster.read_fanout, rf)
    fanout = node_reads + (1.0 - read_ratio) * rf
    node_rr = node_reads / fanout
    per_node = min(
        oracle_solve(cluster.nodes[i], node_rr) / cluster._slowdown.get(i, 1.0)
        for i in live
    )
    x = min(per_node * len(live) / fanout, cluster.n_shooters * SHOOTER_CAPACITY_OPS)
    node_ops = x * fanout / len(live)
    reads = node_ops * node_rr * dt
    writes = node_ops * (1.0 - node_rr) * dt
    per_node_ops = [0.0] * cluster.n_nodes
    for i in live:
        oracle_absorb(cluster.nodes[i], reads, writes, dt)
        per_node_ops[i] = node_ops
    cluster.t += dt
    return ClusterStepResult(
        t=cluster.t, throughput=x, per_node_throughput=per_node_ops, dt=dt
    )


def assert_same_bits(got, want):
    """Equal, and equal to the last bit and the exact type: a pickle
    tells ``0.0`` from ``-0.0`` and ``0`` from ``0.0``.  For models it
    covers the layout, the backlog, the counters and the position of
    every generator the model holds."""
    if isinstance(got, list):
        assert got == want
    assert pickle.dumps(got) == pickle.dumps(want)


def assert_run_equals_oracle(model, read_ratio, steps, dt=1.0):
    """``run`` on ``model`` against the oracle on a deep-copied twin:
    every ``StepResult`` field and the whole state afterwards."""
    twin = copy.deepcopy(model)
    got = model.run(read_ratio, steps * dt, dt)
    want = [oracle_step(twin, read_ratio, dt) for _ in range(steps)]
    assert_same_bits(got, want)
    assert_same_bits(model, twin)
    return got


solve_overrides = st.fixed_dictionaries(
    {
        **OVERRIDES,
        "concurrent_reads": st.integers(min_value=16, max_value=96),
        "compaction_throughput_mb_per_sec": st.integers(min_value=8, max_value=32),
        "bloom_filter_fp_chance": st.floats(min_value=0.001, max_value=0.05),
    }
)

profiles = st.builds(
    WorkloadProfile,
    value_bytes=st.integers(min_value=10, max_value=4000),
    update_fraction=st.floats(min_value=0.0, max_value=1.0),
    krd_mean_ops=st.floats(min_value=1e3, max_value=1e7),
)

READ_RATIOS = (0.0, 5e-324, 0.5, 1.0)


class TestSolveEquivalence:
    @given(
        overrides=solve_overrides,
        profile=profiles,
        bias=st.sampled_from([0.0, 0.05]),
        keys=st.integers(min_value=0, max_value=3_000_000),
        write_seconds=st.sampled_from([0, 20, 90]),
        settle=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_solve_equals_untabled_reference(
        self, overrides, profile, bias, keys, write_seconds, settle
    ):
        """Fresh, loaded, mid-flush and backlogged layouts, both
        compaction strategies, the mix extremes and a denormal ratio."""
        model = AnalyticLSMModel(
            EngineKnobs.from_configuration(SPACE.configuration(**overrides)),
            profile=profile, seed=3, noise_sigma=0.0, run_bias_sigma=bias,
        )
        for rr in READ_RATIOS:
            assert model.sustainable_throughput(rr) == reference_throughput(model, rr)
        if keys:
            model.load(keys)
        if write_seconds:
            model.run(0.1, write_seconds)      # flushes, compaction backlog
        if settle:
            model.settle(max_seconds=50_000)
        for rr in READ_RATIOS + (0.37,):
            assert model.sustainable_throughput(rr) == reference_throughput(model, rr)
            model.step(rr)

    def test_backlogged_states_are_covered(self):
        """The states above are not all idle: a starved compactor under
        writes holds a backlog, and the solve still equals the reference."""
        cfg = SPACE.configuration(
            compaction_throughput_mb_per_sec=8, concurrent_compactors=1
        )
        model = AnalyticLSMModel(
            EngineKnobs.from_configuration(cfg), seed=1, noise_sigma=0.0
        )
        model.load(2_000_000)
        model.run(0.0, 120)
        assert model.compaction_backlog_bytes > 0 and model.total_flushes > 0
        for rr in READ_RATIOS:
            assert model.sustainable_throughput(rr) == reference_throughput(model, rr)


STORES = {"cassandra": CassandraLike(), "scylla": ScyllaLike()}


class TestRunEqualsOracle:
    """The stepping loop against the per-second oracle, to the last bit:
    every ``StepResult`` field, the clocks, the layout, the backlog, the
    counters and the position of the noise stream (and, on a ScyllaLike
    model, of its tuner's)."""

    @given(
        store=st.sampled_from(sorted(STORES)),
        overrides=solve_overrides,
        profile=profiles,
        noise=st.sampled_from([0.0, 0.03]),
        keys=st.integers(min_value=0, max_value=3_000_000),
        write_seconds=st.sampled_from([0, 20, 90]),
        settle=st.booleans(),
        dt=st.sampled_from([0.5, 1.0, 5.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_server(
        self, store, overrides, profile, noise, keys, write_seconds, settle, dt, seed
    ):
        """Fresh, loaded, mid-flush, backlogged and settled layouts, both
        strategies, the mix extremes and a denormal ratio, three step
        lengths, noise on and off."""
        datastore = STORES[store]
        model = datastore.new_analytic_instance(
            datastore.space.configuration(**overrides),
            profile=profile, seed=seed, noise_sigma=noise,
        )
        if keys:
            model.load(keys)
        if write_seconds:
            model.run(0.1, write_seconds)
        if settle:
            model.settle(max_seconds=50_000)
        for rr in READ_RATIOS + (0.37,):
            assert_run_equals_oracle(model, rr, 40, dt)

    @given(
        store=st.sampled_from(sorted(STORES)),
        level=st.sampled_from(["ONE", "QUORUM", "ALL"]),
        rf=st.integers(min_value=1, max_value=3),
        rr=st.sampled_from([0.0, 5e-324, 0.25, 0.5, 0.9, 1.0]),
        down=st.sampled_from([None, 0, 2]),
        slow=st.sampled_from([None, (1, 1.5), (3, 4.0)]),
        mixed=st.booleans(),
        dt=st.sampled_from([0.5, 1.0, 5.0]),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cluster(self, store, level, rf, rr, down, slow, mixed, dt):
        """A down node, a slow disk, a mixed-config (drifted) ring, every
        consistency level and replication factor."""
        datastore = STORES[store]
        cluster = Cluster(
            datastore, datastore.default_configuration(), n_nodes=4,
            replication_factor=rf, n_shooters=4, consistency_level=level, seed=5,
        )
        cluster.load(400_000)
        if down is not None:
            cluster.fail_node(down)
        if slow is not None:
            cluster.set_disk_slowdown(*slow)
        if mixed:
            cluster.apply_node_config(
                1, datastore.space.configuration(
                    compaction_method=LEVELED, concurrent_reads=64
                ),
            )
        twin = copy.deepcopy(cluster)
        got = cluster.run(rr, 25 * dt, dt)
        assert_same_bits(got, [oracle_cluster_step(twin, rr, dt) for _ in range(25)])
        assert_same_bits(cluster.step(0.6, dt), oracle_cluster_step(twin, 0.6, dt))
        assert cluster.t == twin.t
        for node, twin_node in zip(cluster.nodes, twin.nodes):
            assert_same_bits(node, twin_node)


finite_caps = st.floats(min_value=1e-3, max_value=1e9)
any_caps = st.one_of(
    finite_caps,
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, -5.0]),
)


def ulps_apart(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestSoftMin:
    @given(caps=st.lists(any_caps, min_size=0, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_equals_math_oracle(self, caps):
        got, want = _soft_min(caps), soft_min_oracle(caps)
        assert got == want and type(got) is float

    @given(caps=st.lists(any_caps, min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_within_4_ulp_of_the_array_formula(self, caps):
        got, want = _soft_min(caps), soft_min_numpy(caps)
        assert got == want or ulps_apart(got, want) <= 4

    @pytest.mark.parametrize(
        "caps, expected",
        [
            ([], math.inf),
            ([math.inf], math.inf),
            ([math.nan], math.inf),
            ([math.nan, math.inf, 7.0], 7.0),
            ([7.0], 7.0),
            ([0.0, 5.0], 0.0),
            ([-1.0, 5.0], 0.0),
            ([3.0, math.inf], 3.0),
        ],
    )
    def test_rules(self, caps, expected):
        assert _soft_min(caps) == expected


# ---------------------------------------------------------------------------
# Cluster: the step serves exactly the capacity solved just before it
# ---------------------------------------------------------------------------


class TestClusterStepEquivalence:
    @given(
        level=st.sampled_from(["ONE", "QUORUM", "ALL"]),
        rf=st.integers(min_value=1, max_value=3),
        rr=st.sampled_from([0.0, 5e-324, 0.25, 0.5, 0.9, 1.0]),
        down=st.sampled_from([None, 0, 2]),
        slow=st.sampled_from([None, (1, 1.5), (3, 4.0)]),
        mixed=st.booleans(),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_step_throughput_is_the_solve_before_it(
        self, level, rf, rr, down, slow, mixed
    ):
        cassandra = CassandraLike()
        cluster = Cluster(
            cassandra, cassandra.default_configuration(), n_nodes=4,
            replication_factor=rf, n_shooters=4, consistency_level=level, seed=5,
        )
        cluster.load(400_000)
        if down is not None:
            cluster.fail_node(down)
        if slow is not None:
            cluster.set_disk_slowdown(*slow)
        if mixed:
            cluster.apply_node_config(
                1, SPACE.configuration(compaction_method=LEVELED, concurrent_reads=64)
            )
        for _ in range(5):
            solved = cluster.sustainable_throughput(rr)
            # The solve is a pure read: asking twice changes nothing.
            assert cluster.sustainable_throughput(rr) == solved
            result = cluster.step(rr)
            assert result.throughput == solved
            live = cluster.live_node_indices
            assert [i for i, x in enumerate(result.per_node_throughput) if x > 0] == live

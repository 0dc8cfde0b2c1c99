"""Property-based tests on the analytic model's invariants."""

import copy
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import cassandra_space
from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.datastore import CassandraLike, Cluster, ScyllaLike
from repro.datastore.cluster import SHOOTER_CAPACITY_OPS
from repro.lsm import analytic
from repro.lsm.analytic import AnalyticLSMModel, WorkloadProfile, _SegmentTerms, _soft_min
from repro.lsm.knobs import EngineKnobs
from tests.oracles import (
    oracle_cluster_step,
    oracle_step,
    reference_hit,
    reference_throughput,
    soft_min_oracle,
)

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
# (``tests.oracles``)
# ---------------------------------------------------------------------------


def soft_min_numpy(caps):
    """The array formula the model used before it went scalar."""
    finite = np.array([c for c in caps if np.isfinite(c)], dtype=float)
    if finite.size == 0:
        return float("inf")
    scale = finite.min()
    if scale <= 0:
        return 0.0
    return float(scale * np.power(np.sum((scale / finite) ** 8.0), -1.0 / 8.0))


def assert_same_bits(got, want):
    """Equal, and equal to the last bit and the exact type: a pickle
    tells ``0.0`` from ``-0.0`` and ``0`` from ``0.0``.  For models it
    covers the layout, the backlog, the counters and the position of
    every generator the model holds."""
    if isinstance(got, list):
        assert got == want
    assert pickle.dumps(got) == pickle.dumps(want)


def assert_same_state(model, twin):
    """A model after production steps against its twin after the oracle's:
    the whole pickle (clocks, layout, backlog, counters, generator
    positions) and the end state a caller reads off it.  Returns that end
    state."""
    assert_same_bits(model, twin)
    got = (model.cache_hit_ratio(), model.compaction_backlog_bytes, model.sstable_count)
    assert_same_bits(
        got, (reference_hit(twin), twin.compaction_backlog_bytes, twin.sstable_count)
    )
    return SimpleNamespace(
        cache_hit_ratio=got[0], compaction_backlog_bytes=got[1], sstable_count=got[2]
    )


def assert_run_equals_oracle(
    model, read_ratio, steps, dt=1.0, oracle=oracle_step, same_state=assert_same_state
):
    """``run`` on ``model`` (or a ring, with its ``oracle`` and
    ``same_state``) against the oracle on a deep-copied twin: the
    throughput series and the whole state afterwards, and, on a copy run
    one step at a time, the state after every step.  Returns what
    ``same_state`` returns after every step."""
    stepped, twin = copy.deepcopy(model), copy.deepcopy(model)
    got = model.run(read_ratio, steps * dt, dt)
    want, states = [], []
    for _ in range(steps):
        want.append(oracle(twin, read_ratio, dt))
        assert_same_bits(stepped.run(read_ratio, dt, dt), want[-1:])
        states.append(same_state(stepped, twin))
    assert_same_bits(got, want)
    same_state(model, twin)
    return states


def assert_same_ring(cluster, twin):
    """:func:`assert_same_state` for the whole pickled ring and each node."""
    assert_same_bits(cluster, twin)
    for node, twin_node in zip(cluster.nodes, twin.nodes):
        assert_same_state(node, twin_node)


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
            model.run(rr, 1)

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
    the throughput series, and after every step the clocks, the layout,
    the backlog, the counters, the position of the noise stream (and, on a
    ScyllaLike model, of its tuner's) and the end state read off them."""

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
        rf=st.integers(min_value=1, max_value=3),
        rr=st.sampled_from([0.0, 5e-324, 0.25, 0.5, 0.9, 1.0]),
        down=st.sampled_from([None, 0, 2]),
        slow=st.sampled_from([None, (1, 1.5), (3, 4.0)]),
        mixed=st.booleans(),
        dt=st.sampled_from([0.5, 1.0, 5.0]),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cluster(self, store, rf, rr, down, slow, mixed, dt):
        """A down node, a slow disk, a mixed-config (drifted) ring, every
        replication factor."""
        datastore = STORES[store]
        cluster = Cluster(
            datastore, datastore.default_configuration(), n_nodes=4,
            replication_factor=rf, seed=5,
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
        for ratio, steps in ((rr, 25), (0.6, 1)):
            assert_run_equals_oracle(
                cluster, ratio, steps, dt, oracle_cluster_step, assert_same_ring
            )


finite_caps = st.floats(min_value=1e-3, max_value=1e9)
any_caps = st.one_of(
    finite_caps,
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, -5.0]),
)
six_caps = st.lists(any_caps, min_size=6, max_size=6)
tied_caps = st.lists(st.sampled_from([1e-3, 7.5, 1e9, math.inf]), min_size=6, max_size=6)


def six_cap_solve(caps):
    """A segment's ``solve`` with its closed-over terms rebound so that, at
    a hit ratio of 0, its six caps (cpu, sequential disk, flush, write
    pool, random disk, read pool) are exactly ``caps``: every divisor is
    1.0, so each cap passes through unrounded."""
    model = make_model({}, seed=0)
    solve = _SegmentTerms(model._regime(0.5), 1.0, 0, False).solve
    cpu, seq, flush, wpool, iops, rpool = caps
    terms = dict(
        r=1.0, touched=1.0, probed=0.0, cpu_read_fixed=1.0, cpu_cache_hit=0.0,
        read_contention=1.0, write_cpu=0.0, cores=cpu, seq_cap=seq, flush_cap=flush,
        write_pool_cap=wpool, iops=iops, read_pool_cap=rpool,
    )
    for name, cell in zip(solve.__code__.co_freevars, solve.__closure__):
        if name in terms:
            cell.cell_contents = terms.pop(name)
    assert not terms, f"solve no longer closes over {sorted(terms)}"
    return solve(0.0)


def builtin_min_solve(caps):
    """The six-cap form as written with builtin ``min`` for its scale."""
    scale = min(caps)
    if 0.0 < scale < math.inf:
        a, b, c, d, e, f = ((scale / cap) ** 8.0 for cap in caps)
        total = a + b + c + d + e + f
        if total == total:
            return scale * total ** (-1.0 / 8.0)
    return _soft_min(caps)


def rotations(caps):
    return [caps[i:] + caps[:i] for i in range(len(caps))]


def ulps_apart(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestSoftMin:
    @given(caps=st.lists(any_caps, min_size=0, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_equals_math_oracle(self, caps):
        got, want = _soft_min(caps), soft_min_oracle(caps)
        assert got == want and type(got) is float

    @given(caps=st.one_of(six_caps, tied_caps))
    @example(caps=[1.0, math.nan, 2.0, 3.0, 4.0, 5.0])    # NaN after a positive min
    @example(caps=[math.nan, 1.0, 2.0, 3.0, 4.0, 5.0])
    @example(caps=[2.0, math.inf, 2.0, math.inf, 7.0, 2.0])
    @example(caps=[3.0, 0.0, 4.0, -0.0, 5.0, -5.0])
    @example(caps=[math.inf] * 6)
    @settings(max_examples=500, deadline=None)
    def test_six_cap_form_equals_math_oracle(self, caps):
        """The solve's fused six-cap form, bit for bit (``hex`` tells
        ``-0.0`` from ``0.0``), and its compare chain builtin ``min``."""
        got = six_cap_solve(caps)
        assert type(got) is float
        assert got.hex() == soft_min_oracle(caps).hex() == _soft_min(caps).hex()
        assert got.hex() == builtin_min_solve(caps).hex()

    @pytest.mark.parametrize(
        "caps",
        # Each cap the scale once.  The power mean does not depend on its
        # scale in exact arithmetic, so a wrong scale must overflow to show.
        rotations([1e-300, 3.0, 5.0, 7.0, 11.0, 13.0])
        + rotations([math.nan, 1.0, 2.0, 3.0, 4.0, 5.0])   # NaN in every position
        + rotations([0.0, -0.0, 1.0, 2.0, 3.0, 4.0])
        + rotations([-0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        + rotations([math.inf, -math.inf, 2.0, 2.0, 7.0, 2.0]),
    )
    def test_scale_chain_equals_builtin_min_in_every_position(self, caps):
        """Ties, ``±inf``, NaN and ``-0.0`` against ``0.0`` in every position."""
        assert six_cap_solve(caps).hex() == builtin_min_solve(caps).hex()

    @given(caps=st.one_of(six_caps, tied_caps))
    @example(caps=[1.0, 2.0, 3.0, 4.0, 5.0, math.nan])   # a NaN sum, positive scale
    @example(caps=[1.0, 2.0, 3.0, 4.0, 5.0, -0.0])
    @settings(max_examples=300, deadline=None)
    def test_fallback_reached_for_non_positive_cap_or_nan_sum(self, caps):
        """A cap that is not positive (NaN included) or six infinite caps
        take ``_soft_min``; six positive caps with a finite one never do."""
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytic, "_soft_min", lambda c: calls.append(c) or _soft_min(c))
            six_cap_solve(caps)
        positive = all(0.0 < cap for cap in caps)
        assert bool(calls) is (not positive or min(caps) == math.inf)

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
        rf=st.integers(min_value=1, max_value=3),
        rr=st.sampled_from([0.0, 5e-324, 0.25, 0.5, 0.9, 1.0]),
        down=st.sampled_from([None, 0, 2]),
        slow=st.sampled_from([None, (1, 1.5), (3, 4.0)]),
        mixed=st.booleans(),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_step_throughput_is_the_solve_before_it(
        self, rf, rr, down, slow, mixed
    ):
        cassandra = CassandraLike()
        cluster = Cluster(
            cassandra, cassandra.default_configuration(), n_nodes=4,
            replication_factor=rf, seed=5,
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
            clocks = [node.t for node in cluster.nodes]
            assert cluster.run(rr, 1) == [solved]
            moved = [i for i, node in enumerate(cluster.nodes) if node.t != clocks[i]]
            assert moved == cluster.live_node_indices


class TestRingCapacity:
    """``Cluster._capacity``'s compare chains are the list-plus-``min``
    formula they replace, bit for bit."""

    @staticmethod
    def builtin_min_capacity(cluster, nodes, fanout):
        per_node = min([x / slow for x, slow in nodes])
        return min(per_node * len(nodes) / fanout, cluster.n_nodes * SHOOTER_CAPACITY_OPS)

    @pytest.fixture(scope="class")
    def ring(self):
        cassandra = CassandraLike()
        return Cluster(cassandra, cassandra.default_configuration(), n_nodes=4, seed=5)

    @given(
        nodes=st.lists(
            st.tuples(
                st.one_of(
                    st.floats(min_value=1.0, max_value=1e7),
                    st.sampled_from([1.0, 5e4, 2e5, 1e6, math.inf, math.nan]),
                ),
                st.sampled_from([1.0, 1.5, 2.5, 4.0]),     # disk slowdowns
            ),
            min_size=1,
            max_size=4,
        ),
        fanout=st.sampled_from([1.0, 1.25, 2.0, 3.0]),
    )
    @example(nodes=[(1e5, 1.0), (5e4, 1.0), (5e4, 1.0)], fanout=1.0)       # tied nodes
    @example(nodes=[(1e6, 1.0)] * 4, fanout=1.0)                            # shooters bind
    @example(nodes=[(math.nan, 1.0), (5e4, 1.0)], fanout=2.0)              # a NaN node first
    @example(nodes=[(5e4, 1.0), (math.nan, 1.0), (1e4, 2.5)], fanout=2.0)  # ... and later
    @settings(max_examples=300, deadline=None)
    def test_equals_list_and_builtin_min(self, ring, nodes, fanout):
        kernels = [(iter([x]), slow) for x, slow in nodes]
        got = ring._capacity(kernels, fanout)
        assert got.hex() == self.builtin_min_capacity(ring, nodes, fanout).hex()
        assert all(next(kernel, None) is None for kernel, _ in kernels)   # each read once

"""Block ≡ one-op ≡ oracle equivalence of the engine's op loop.

PR 2's batch≡scalar convention, applied to execution: an
:class:`~repro.workload.generator.OperationBatch` pushed through
:meth:`~repro.lsm.engine.LSMEngine.execute_batch` must leave the engine
in the *bit-identical* state (stats, simulated clock, cache, layout)
that running the same block through ``get``/``put``/``delete`` one op
at a time (``ONE_OP``: the same loop, entered per op) and through
the per-op oracle (``tests.oracles.apply_scalar``: the point ops as
written before the loop) would.  The loop charges every op itself —
what a block vectorizes is its hashing and its probe plan — so the
supporting vectorized pieces (FNV hashing, bloom bulk ops,
key-distribution batch draws) must match their scalar references
exactly, and same-kind runs are drawn long on purpose: a block-level
shortcut is where the loop's per-op side effects (a flush, a sync
barrier, a drain that moves the regime) would go missing.
"""

import copy
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.datastore import CassandraLike
from repro.errors import DatastoreError, WorkloadError
from repro.lsm import bloom
from repro.lsm import engine as engine_module
from repro.lsm.bloom import BloomFilter, _FilterBank, _fnv1a, _key_column, hash_key, hash_keys
from repro.lsm.engine import OP_DELETE, OP_READ, OP_WRITE, LSMEngine
from repro.sim.clock import SimClock
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.hardware import HardwareSpec
from repro.workload.generator import OperationGenerator
from repro.workload.keydist import ExponentialReuseKeyDistribution
from repro.workload.spec import WorkloadSpec

from .conftest import MB, make_knobs
from .oracles import apply_scalar, apply_scalar_columns


def small_hardware() -> HardwareSpec:
    return HardwareSpec(
        name="test-box",
        cpu_cores=4,
        cpu_ghz=3.0,
        ram_bytes=4 * MB,
        disk_seq_bandwidth=16 * MB,
        disk_rand_iops=2_000.0,
        disk_count=1,
        net_bandwidth=10 * MB,
    )


def twin_engines(strategy, **knobs):
    """Two engines in identical states; one per execution path."""
    return (
        LSMEngine(make_knobs(compaction_method=strategy, **knobs), small_hardware()),
        LSMEngine(make_knobs(compaction_method=strategy, **knobs), small_hardware()),
    )


def engine_state(engine: LSMEngine) -> tuple:
    return (
        engine.stats,
        engine.clock.now,
        engine.cache.hit_ratio,
        list(engine.cache._pages),  # LRU order, not just the hit tally
        engine.sstable_count,
        engine.memtable.rows,  # the records: timestamps, tie-breaks and all
        engine.memtable.size_bytes,
        engine.compaction_backlog_bytes,
        engine.disk.stats,
        engine.commitlog.active_segment_bytes,
        engine.commitlog.sealed_segment_count,
        engine.commitlog.total_bytes_written,
        engine.commitlog.total_syncs,
        engine.commitlog.last_sync_time,
    )


#: The ops as one-op blocks: ``apply_scalar_columns`` through the public
#: per-op API in place of the oracle.
ONE_OP = (LSMEngine.get, LSMEngine.put, LSMEngine.delete)


def run_three_ways(batched: LSMEngine, scalar: LSMEngine, kinds, keys, sizes):
    """One block whole through ``execute_batch`` on ``batched``, as
    one-op blocks on a copy of it, and through the oracle on ``scalar``;
    asserts the three agree and returns the batch result."""
    one_op = copy.deepcopy(batched)
    result = batched.execute_batch(kinds, keys, sizes)
    trace = apply_scalar_columns(scalar, kinds, keys, sizes)
    assert apply_scalar_columns(one_op, kinds, keys, sizes, ONE_OP) == trace
    assert engine_state(batched) == engine_state(scalar) == engine_state(one_op)
    assert np.array_equal(result.end_times, np.array(trace))
    return result


def run_ops(batched: LSMEngine, scalar: LSMEngine, ops):
    """:func:`run_three_ways` on a hand-built block of ``(kind, key,
    value size)``."""
    return run_three_ways(
        batched,
        scalar,
        np.array([kind for kind, _, _ in ops]),
        [key for _, key, _ in ops],
        np.array([size for _, _, size in ops]),
    )


def run_block(batched: LSMEngine, scalar: LSMEngine, block):
    """:func:`run_three_ways` on an ``OperationBatch``."""
    return run_three_ways(
        batched, scalar, block.kinds, block.key_names(), block.value_sizes
    )


def write(key, size=200):
    return (OP_WRITE, key, size)


def read(key):
    return (OP_READ, key, 0)


def key(i: int) -> str:
    return f"user{i:012d}"


#: Same-kind run lengths to draw: from 8 up, and past the 128 writes
#: that fill a ``make_knobs`` memtable, so a write run crosses a flush
#: wherever it starts.
LONG_RUNS = st.sampled_from([8, 21, 130, 300])


class TestExecuteBatchEquivalence:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        read_ratio=st.floats(min_value=0.0, max_value=0.9),
        delete_fraction=st.sampled_from([0.0, 0.05]),
        update_fraction=st.floats(min_value=0.0, max_value=1.0),
        strategy=st.sampled_from([SIZE_TIERED, LEVELED]),
        n_ops=st.integers(min_value=20, max_value=300),
        run=LONG_RUNS,
        sync_period_s=st.sampled_from([10.0, 0.002]),
    )
    def test_same_block_identical_state_and_clock(
        self, seed, read_ratio, delete_fraction, update_fraction, strategy, n_ops,
        run, sync_period_s,
    ):
        spec = WorkloadSpec(
            read_ratio=read_ratio,
            n_keys=500,
            value_bytes=200,
            update_fraction=update_fraction,
            delete_fraction=delete_fraction,
            krd_mean_ops=50,
        )
        gen = OperationGenerator(spec, np.random.default_rng(seed))
        batched, scalar = twin_engines(strategy, commitlog_sync_period_s=sync_period_s)

        run_block(batched, scalar, gen.load_batch(150))
        # Two blocks so the second starts from mid-flight flush /
        # compaction state rather than a fresh engine.
        for _ in range(2):
            run_block(batched, scalar, gen.operation_batch(n_ops))
        # One long write run from wherever that left the memtable, the
        # commitlog's sync clock and the background; one long read run
        # with the background idle.
        fresh = [key(spec.n_keys + i) for i in range(run)]
        flushes, syncs = batched.stats.flushes, batched.commitlog.total_syncs
        run_ops(batched, scalar, [write(name) for name in fresh])
        if run >= 130:
            assert batched.stats.flushes > flushes
            assert sync_period_s > 1.0 or batched.commitlog.total_syncs > syncs
        for engine in (batched, scalar):
            engine.idle_until_compact()
        run_ops(batched, scalar, [read(name) for name in fresh])

    def test_write_heavy_run_crosses_flush_and_compaction(self):
        """The equivalence must hold *through* background work."""
        spec = WorkloadSpec(
            read_ratio=0.2, n_keys=300, value_bytes=400, update_fraction=0.3
        )
        gen = OperationGenerator(spec, np.random.default_rng(9))
        batched, scalar = twin_engines(SIZE_TIERED)
        for _ in range(4):
            block = gen.operation_batch(250)
            batched.execute_batch(block.kinds, block.key_names(), block.value_sizes)
            apply_scalar(scalar, block)
        assert batched.stats.flushes > 0
        assert batched.stats.compactions_started > 0
        assert engine_state(batched) == engine_state(scalar)

    def test_batch_counts_by_kind(self):
        spec = WorkloadSpec(read_ratio=0.6, n_keys=200, delete_fraction=0.1)
        gen = OperationGenerator(spec, np.random.default_rng(4))
        engine, _ = twin_engines(SIZE_TIERED)
        load = gen.load_batch(50)
        engine.execute_batch(load.kinds, load.key_names(), load.value_sizes)
        block = gen.operation_batch(120)
        result = engine.execute_batch(
            block.kinds, block.key_names(), block.value_sizes
        )
        assert result.n_ops == 120
        assert result.reads == np.count_nonzero(block.kinds == OP_READ)
        assert result.deletes == np.count_nonzero(block.kinds == OP_DELETE)
        assert result.writes == 120 - result.reads - result.deletes


class TestGeneratorBatches:
    def test_load_batch_columns(self):
        spec = WorkloadSpec(read_ratio=0.5, n_keys=100, value_bytes=64)
        gen = OperationGenerator(spec, np.random.default_rng(1), loaded_keys=7)
        block = gen.load_batch(40)
        assert block.key_ids.tolist() == list(range(7, 47))
        assert block.key_names() == [gen.key_dist.key_name(i) for i in range(7, 47)]
        assert np.all(block.kinds == OP_WRITE)
        assert np.all(block.value_sizes == spec.value_bytes)
        assert gen._next_insert_id == 47

    def test_operation_batch_is_seed_deterministic(self):
        spec = WorkloadSpec(read_ratio=0.7, n_keys=300, krd_mean_ops=40)

        def draw():
            gen = OperationGenerator(spec, np.random.default_rng(11))
            gen.load_batch(100)
            b = gen.operation_batch(200)
            return b.kinds.copy(), b.key_ids.copy(), b.value_sizes.copy()

        a, b = draw(), draw()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_read_ratio_override(self):
        spec = WorkloadSpec(read_ratio=0.1, n_keys=100)
        gen = OperationGenerator(spec, np.random.default_rng(2), loaded_keys=100)
        block = gen.operation_batch(2000, read_ratio=0.95)
        assert np.count_nonzero(block.kinds == OP_READ) / 2000 > 0.85

    @pytest.mark.parametrize("read_ratio", [0.95, float("nan"), 1.5, -0.2])
    def test_read_ratio_override_takes_the_spec_checks(self, read_ratio):
        """With a tenth of ops deletes, 0.95 leaves no room for them, NaN
        is no ratio, and 1.5 / -0.2 are out of range."""
        spec = WorkloadSpec(read_ratio=0.1, n_keys=100, delete_fraction=0.1)
        gen = OperationGenerator(spec, np.random.default_rng(2), loaded_keys=100)
        state = gen.rng.bit_generator.state
        with pytest.raises(WorkloadError):
            gen.operation_batch(100, read_ratio=read_ratio)
        assert gen.rng.bit_generator.state == state  # nothing drawn
        block = gen.operation_batch(2000, read_ratio=0.8)
        assert 0.07 < np.count_nonzero(block.kinds == OP_DELETE) / 2000 < 0.13


class TestKeyDistributionBatches:
    def test_exponential_reuse_batch_deterministic_and_bounded(self):
        def draw():
            dist = ExponentialReuseKeyDistribution(n_keys=500, mean_reuse_distance=30)
            rng = np.random.default_rng(13)
            return dist.next_keys(rng, 400), dist

        a, dist_a = draw()
        b, dist_b = draw()
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 500
        # Bookkeeping advanced as if the keys were drawn one at a time.
        assert dist_a._count == 400
        assert dist_a._held == 400
        assert dist_a._last_seen == dist_b._last_seen

    def test_exponential_reuse_streams_are_pinned(self):
        """Digests captured before the history moved from a deque into
        an int64 buffer: 50 blocks of key ids, ``_last_seen``, ``_count``
        and the generator's position."""
        dist = ExponentialReuseKeyDistribution(40_000, 20_000.0)
        rng = np.random.default_rng(2017)
        ids = [k for _ in range(50) for k in dist.next_keys(rng, 384).tolist()]
        state = [ids, sorted(dist._last_seen.items()), dist._count, rng.random()]
        assert hashlib.sha256(json.dumps(state).encode()).hexdigest() == (
            "0fe181ebab46418a23bdf09af9b703d521b0d5b49d4cb1f345dabaa8406000e8"
        )

    @pytest.mark.parametrize(
        "limit, seed, n_batch, n_scalar, digest",
        [(1500, 7, 170, 37, "723a6cfd6709f538"), (7, 8, 5, 3, "e98add236905b1d6")],
    )
    def test_mixed_use_past_the_history_limit_is_pinned(
        self, limit, seed, n_batch, n_scalar, digest
    ):
        """``next_keys`` and ``next_key`` interleaved, through the point
        where the window is full and the batch path falls back to the
        scalar sampler (the ring wraps)."""
        dist = ExponentialReuseKeyDistribution(2000, 50.0, history_limit=limit)
        rng = np.random.default_rng(seed)
        ids = []
        for _ in range(12):
            ids += dist.next_keys(rng, n_batch).tolist()
            ids += [dist.next_key(rng) for _ in range(n_scalar)]
        assert dist._held == limit
        state = [ids, sorted(dist._last_seen.items()), dist._count, rng.random()]
        assert hashlib.sha256(json.dumps(state).encode()).hexdigest()[:16] == digest

    def test_next_keys_does_no_work_that_grows_with_history(self, monkeypatch):
        """A count, not a timing: no array is built from the history per
        block (the deque was converted whole, 16 MB a block at the 2 M
        limit), and the buffer is grown by doubling, never to the limit
        up front."""
        dist = ExponentialReuseKeyDistribution(10**6, 5_000.0)
        rng = np.random.default_rng(3)
        converted = [0]  # lengths of what numpy was asked to build arrays from

        def counting(real):
            def build(a, *args, **kwargs):
                converted.append(len(a) if hasattr(a, "__len__") else 1)
                return real(a, *args, **kwargs)

            return build

        for name in ("array", "asarray", "fromiter"):
            monkeypatch.setattr(np, name, counting(getattr(np, name)))
        buffers = set()
        for _ in range(260):
            dist.next_keys(rng, 400)
            buffers.add(len(dist._history))
        assert dist._held == 104_000
        assert max(converted) <= 400  # a block's worth at most
        assert len(buffers) <= 8 and max(buffers) < 2 * dist._held < dist.history_limit

    def test_exponential_reuse_batch_actually_reuses(self):
        dist = ExponentialReuseKeyDistribution(n_keys=100_000, mean_reuse_distance=20)
        keys = dist.next_keys(np.random.default_rng(3), 2000)
        # With an 0.8 reuse probability and a tiny mean distance, a
        # 2000-op draw over a 100k keyspace must repeat keys heavily.
        assert len(np.unique(keys)) < 1200


class TestBloomBatches:
    KEYS = [f"user{i:012d}" for i in range(200)]

    def test_hash_keys_matches_scalar_fnv(self):
        # Equal lengths (every column unmasked), mixed lengths (the
        # columns past the shortest key masked) and a one-key batch.
        mixed = ["a", "bb", "user0001", "k" * 30, "q", "user000000000001"]
        for keys in (self.KEYS, mixed, ["solo"]):
            hashed = hash_keys(_key_column(keys))
            assert hashed is not None
            h1, h2 = hashed
            for i, key in enumerate(keys):
                data = key.encode("utf-8")
                assert int(h1[i]) == _fnv1a(data, seed=0x9E3779B9)
                assert int(h2[i]) == (_fnv1a(data, seed=0x85EBCA6B) | 1)
                assert (int(h1[i]), int(h2[i])) == hash_key(key)

    def test_hash_keys_refuses_non_ascii_and_embedded_nul(self):
        # Such keys get no byte column, so they never reach hash_keys.
        assert _key_column(["café", "user1"]) is None
        assert _key_column(["a\x00b"]) is None

    def test_add_many_bit_identical_to_sequential_add(self):
        scalar = BloomFilter(expected_items=200, fp_chance=0.01)
        batch = BloomFilter(expected_items=200, fp_chance=0.01)
        for key in self.KEYS:
            scalar.add(key)
        batch.add_many(*hash_keys(_key_column(self.KEYS)))
        assert bytes(scalar._bits) == bytes(batch._bits)
        assert scalar.n_items == batch.n_items

    def test_filter_bank_matches_scalar_probe(self):
        """One pass over (filter, key) pairs across filters of three
        hash counts, in any pair order, answers what each filter's own
        scalar probe does."""
        filters = [
            BloomFilter.from_keys(self.KEYS[i::3], fp_chance=fp)
            for i, fp in enumerate((0.01, 0.3, 0.01, 0.001))
        ]
        assert len({f.n_hashes for f in filters}) == 3
        bank = _FilterBank(filters)
        probes = self.KEYS[::3] + [f"miss{i:08d}" for i in range(100)]
        rng = np.random.default_rng(7)
        owner = rng.integers(0, len(filters), size=3 * len(probes))
        which = rng.integers(0, len(probes), size=len(owner))
        h1, h2 = hash_keys(_key_column(probes)[which])
        hits = bank.might_contain_pairs(owner, h1, h2)
        expected = [filters[f].might_contain(probes[w]) for f, w in zip(owner, which)]
        assert hits.tolist() == expected
        assert 0 < sum(expected) < len(expected)


class TestRunEngineTail:
    def test_partial_final_interval_is_reported(self):
        """A run shorter than one 10 s report interval must still yield
        a series — the tail used to vanish on the engine path."""
        from repro.bench.ycsb import YCSBBenchmark

        datastore = CassandraLike()
        bench = YCSBBenchmark(datastore)
        workload = WorkloadSpec(read_ratio=0.8, n_keys=500, krd_mean_ops=50)
        result = bench.run_engine(
            datastore.default_configuration(),
            workload,
            n_ops=400,
            load_keys=150,
            seed=3,
        )
        assert len(result.series) >= 1
        assert result.series[-1].ops_per_second > 0


def loaded_twins(strategy=SIZE_TIERED, n_keys=500, **knobs):
    """Twins after ``n_keys`` 256-byte inserts: with the default 500,
    three L0 tables and a memtable 12 writes short of the fourth flush
    (which also proposes the first compaction)."""
    batched, scalar = (
        LSMEngine(make_knobs(compaction_method=strategy, **knobs), small_hardware())
        for _ in range(2)
    )
    run_ops(batched, scalar, [write(key(i)) for i in range(n_keys)])
    return batched, scalar


class TestProbePlanTraps:
    """Each case makes the block's probe plan stale in a different way;
    a plan used past its layout epoch shows as a state mismatch."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        read_ratio=st.floats(min_value=0.3, max_value=0.7),
        strategy=st.sampled_from([SIZE_TIERED, LEVELED]),
        run=LONG_RUNS,
    )
    def test_mixed_blocks_under_busy_background(self, seed, read_ratio, strategy, run):
        spec = WorkloadSpec(
            read_ratio=read_ratio,
            n_keys=600,
            value_bytes=200,
            update_fraction=0.5,
            krd_mean_ops=200,
        )
        gen = OperationGenerator(spec, np.random.default_rng(seed))
        batched, scalar = twin_engines(strategy)
        run_block(batched, scalar, gen.load_batch(520))  # four flushes: a compaction is pending
        # A long write run while it is (on copies: it would outlast the
        # compaction): every op's drain can move the regime under the
        # ones still to come.
        assert batched.compaction_backlog_bytes > 0
        run_ops(*copy.deepcopy((batched, scalar)), [write(key(i)) for i in range(run)])
        busy_blocks = 0
        for _ in range(3):
            busy_blocks += batched.compaction_backlog_bytes > 0
            run_block(batched, scalar, gen.operation_batch(400))
        assert busy_blocks > 0

    def test_flush_mid_block_is_seen_by_later_reads(self):
        batched, scalar = loaded_twins()
        assert batched.sstable_count == 3 and key(400) in batched.memtable
        before = replace(batched.stats)
        ops = [read(key(400)), read(key(5)), write(key(500)), read(key(400))]
        ops += [op for i in range(501, 512) for op in (write(key(i)), read(key(i)))]
        # The 12th write (key 511) flushed: from its own read on, these
        # keys live in the new L0 table.
        ops += [read(key(400)), read(key(505)), write(key(600)), read(key(511))]
        run_ops(batched, scalar, ops)
        assert batched.stats.flushes == before.flushes + 1
        assert len(batched.memtable) == 1
        # Key 5 from an old table; 511 (twice), 400 and 505 from the new one.
        assert batched.stats.bloom_true_positives == before.bloom_true_positives + 5
        assert batched.stats.memtable_hits == before.memtable_hits + 2 + 10

    @pytest.mark.parametrize("strategy", [SIZE_TIERED, LEVELED])
    def test_compaction_completing_mid_block_retires_its_tables(self, strategy):
        batched, scalar = loaded_twins(strategy, n_keys=512)
        assert batched.sstable_count == 4 and batched.stats.compactions_started == 1
        doomed = {t.table_id for t in batched.layout.all_tables()}
        result = run_ops(batched, scalar, [read(key(i % 512)) for i in range(1500)])
        assert batched.stats.compactions_completed == 1
        live = batched.layout.all_tables()
        assert doomed.isdisjoint(t.table_id for t in live)
        # It completed with reads still to come, none of which probed
        # (and so re-cached a page of) a table that was gone.
        done_at = max(t.created_at for t in live)
        assert result.start_time < done_at < result.end_times[-100]
        assert {page[0] for page in batched.cache._pages} <= {t.table_id for t in live}

    @pytest.mark.parametrize(
        "change",
        [
            dict(file_cache_bytes=64 * 1024),
            dict(compaction_method=LEVELED),
            dict(bloom_fp_chance=0.3),
        ],
    )
    def test_reconfigure_between_blocks(self, change, monkeypatch):
        batched, scalar = loaded_twins(n_keys=512)
        mixed = [op for i in range(200) for op in (read(key(3 * i % 512)), write(key(i)))]
        run_ops(batched, scalar, mixed)
        # The hash counts of the L0 filters each plan was derived under.
        planned, replan = [], LSMEngine._replan
        monkeypatch.setattr(
            LSMEngine,
            "_replan",
            lambda engine, plan, k: planned.append(
                {t.bloom.n_hashes for t in engine.layout.levels[0]}
            ) or replan(engine, plan, k),
        )
        for engine in (batched, scalar):
            engine.reconfigure(replace(engine.knobs, **change))
        run_ops(batched, scalar, mixed)
        run_ops(batched, scalar, [read(key(i)) for i in range(300)])
        if "bloom_fp_chance" in change:
            # Old and new filters side by side in L0: the bank's pass
            # ran over two hash counts at once.
            assert any(len(counts) == 2 for counts in planned)

    @pytest.mark.parametrize("strategy", [SIZE_TIERED, LEVELED])
    def test_reads_on_and_past_the_table_key_ranges(self, strategy):
        """Every table's key range excludes part of the block, and reads
        land exactly on each range's ends (``searchsorted``'s sides) and
        just past them."""
        batched, scalar = loaded_twins(strategy, n_keys=700)
        for engine in (batched, scalar):
            engine.idle_until_compact()
        run_ops(batched, scalar, [write(key(i)) for i in range(700, 830)])
        tables = batched.layout.all_tables()
        assert len(tables) >= 3
        ends = sorted({name for t in tables for name in (t.min_key, t.max_key)})
        past = [name[:-1] + chr(ord(name[-1]) + d) for name in ends for d in (-1, 1)]
        names = ["a", "zz"] + ends + past + [key(i) for i in range(0, 830, 37)]
        rng = np.random.default_rng(3)
        names = [names[i] for i in rng.permutation(len(names))]
        assert all(any(not t.min_key <= n <= t.max_key for n in names) for t in tables)
        run_ops(batched, scalar, [read(name) for name in names])

    def test_write_then_read_and_delete_in_one_block(self):
        batched, scalar = loaded_twins()
        before = replace(batched.stats)
        ops = [
            write("fresh"), read("fresh"),
            write(key(7), 300), read(key(7)),
            (OP_DELETE, key(8), 0), read(key(8)),
            (OP_DELETE, "fresh", 0), read("fresh"),
        ]
        run_ops(batched, scalar, ops)
        assert batched.stats.memtable_hits == before.memtable_hits + 4
        assert batched.stats.deletes == before.deletes + 2
        assert batched.get("fresh") is None and batched.get(key(8)) is None
        assert batched.get(key(7)) == bytes(300)

    def test_non_ascii_key_falls_back_to_the_unplanned_probe(self, monkeypatch):
        batched, scalar = loaded_twins()
        calls = []
        monkeypatch.setattr(
            bloom, "_fnv1a", lambda data, seed=0: calls.append(data) or _fnv1a(data, seed)
        )
        ops = [write("clé"), read(key(3)), read("clé"), read("zoé"), read(key(400))]
        run_ops(batched, scalar, ops)
        assert calls  # hashed key by key: no plan for this block
        # Nor for its long ASCII run, background idle or not.
        for engine in (batched, scalar):
            engine.idle_until_compact()
        run_ops(batched, scalar, ops + [read(key(i)) for i in range(20)])

    def test_ascii_block_never_hashes_key_by_key(self, monkeypatch):
        """A count, not a timing: one vector hash per block, whatever the
        run lengths and the background (~347 k scalar hashes per
        ``engine_ycsb`` repetition before the plan)."""
        batched, _ = loaded_twins(n_keys=512)
        spec = WorkloadSpec(read_ratio=0.5, n_keys=600, value_bytes=200)
        gen = OperationGenerator(
            spec, np.random.default_rng(5), loaded_keys=512
        )
        calls = []
        monkeypatch.setattr(bloom, "_fnv1a", lambda *a, **k: calls.append(a))
        for _ in range(3):
            block = gen.operation_batch(400)
            batched.execute_batch(block.kinds, block.key_names(), block.value_sizes)
        assert batched.stats.flushes > 4 and batched.stats.tables_probed > 0
        assert calls == []


def edge_keys() -> list:
    """Keys where byte order and ``str`` order could part: prefixes of
    each other, the empty key, the lowest and highest ASCII code points
    a column keeps (``\x01``, ``\x7f``), and keys of 1-20 characters."""
    keys = ["", "a", "ab", "abc", "\x01", "\x7f", "a\x01", "a\x7f", "ab\x7f", "\x7f\x01"]
    rng = np.random.default_rng(11)
    keys += ["".join(map(chr, rng.integers(1, 128, n))) for n in range(1, 21) for _ in range(3)]
    return sorted(set(keys))


class TestByteKeyColumns:
    """Blocks plan on ASCII byte columns, which must order, search and
    hash like the strings: each case runs block == one-op == oracle."""

    @staticmethod
    def flushed_tables(groups) -> tuple:
        """Twins holding one flushed table per key group; every key's
        value is its own length, so a read-back check is a dict."""
        batched, scalar = twin_engines(SIZE_TIERED)
        for group in groups:
            run_ops(batched, scalar, [write(k, 1 + len(k)) for k in group])
            for engine in (batched, scalar):
                engine.flush()
        return batched, scalar

    @staticmethod
    def neighbours(keys) -> list:
        """Absent keys right next to each present one."""
        out = [k + "\x01" for k in keys] + [k[:-1] for k in keys if k]
        return [k for k in out if k not in set(keys)]

    @pytest.mark.parametrize("strategy", [SIZE_TIERED, LEVELED])
    def test_prefixes_empty_and_edge_code_points(self, strategy):
        keys = edge_keys()
        batched, scalar = self.flushed_tables([keys[0::3], keys[1::3], keys[2::3]])
        for engine in (batched, scalar):
            engine.reconfigure(replace(engine.knobs, compaction_method=strategy))
        tables = batched.layout.all_tables()
        assert len(tables) >= 3 and all(t.keys_array() is not None for t in tables)
        reads = keys + self.neighbours(keys)
        rng = np.random.default_rng(5)
        reads = [reads[i] for i in rng.permutation(len(reads))]
        assert batched._plan(reads) is not None  # the block plans on a byte column
        run_ops(batched, scalar, [read(k) for k in reads])
        assert batched._index[1] is not None  # ... and searched the tables' columns
        assert batched.stats.bloom_true_positives == len(keys)
        assert {k: batched.get(k) for k in keys} == {k: bytes(1 + len(k)) for k in keys}

    def test_one_non_ascii_table_takes_the_fallback(self):
        """A table with no byte column sends the whole layout table by
        table, ASCII reads included; results do not change."""
        keys = edge_keys()
        wide = ["clé", "zoé", "a\u00ff", "\u4e16"]
        batched, scalar = self.flushed_tables([keys[0::2], wide, keys[1::2]])
        assert sum(t.keys_array() is None for t in batched.layout.all_tables()) == 1
        reads = keys + self.neighbours(keys)
        assert batched._plan(reads) is not None
        run_ops(batched, scalar, [read(k) for k in reads])
        assert batched._index[1] is None  # the layout took the table-by-table probe
        run_ops(batched, scalar, [read(k) for k in wide + reads[::3]])
        every = keys + wide
        assert {k: batched.get(k) for k in every} == {k: bytes(1 + len(k)) for k in every}


def alternating(n: int, first: int = 0, size: int = 200):
    """``n`` write/read pairs: every op's kind, and so its branch of the
    loop, differs from the one before."""
    return [
        op for i in range(first, first + n) for op in (write(key(i), size), read(key(i // 2)))
    ]


class TestOpLoop:
    """What the loop holds across ops must be dropped by each event that
    can move the regime, and each per-op side effect must reach the
    charge; every case is block ≡ one-op ≡ oracle through ``run_ops``."""

    def test_flush_then_the_queue_drains_to_zero(self):
        batched, scalar = twin_engines(SIZE_TIERED)
        run_ops(batched, scalar, alternating(127))
        assert batched.stats.flushes == 0 and batched._regime() == (0, False)
        # Write 128 flushes; the next op's drain empties the queue.
        run_ops(batched, scalar, [write(key(127))])
        assert batched.stats.flushes == 1 and batched._regime() == (0, True)
        run_ops(batched, scalar, [read(key(0))])
        assert batched._regime() == (0, False)
        # Both events inside one block, ops to come after each.
        run_ops(batched, scalar, alternating(140, first=128))
        assert batched.stats.flushes == 2 and batched._regime() == (0, False)

    @pytest.mark.parametrize("compactors", [2, 4])
    def test_completions_hand_residual_budget_to_the_next_compactors(self, compactors):
        slow = make_knobs(
            concurrent_compactors=compactors, compaction_throughput_bytes=64 * 1024
        )
        batched, scalar = (LSMEngine(slow, small_hardware()) for _ in range(2))
        run_ops(batched, scalar, [write(key(i), 2000) for i in range(1500)])
        queued = len(batched._pending_compactions)
        assert queued > 2 * compactors and batched.stats.compactions_completed == 0
        for engine in (batched, scalar):
            engine.reconfigure(replace(engine.knobs, compaction_throughput_bytes=8 * MB))
        # The active tasks are a few bytes apart: each completion leaves
        # budget the same drain's second turn spends on the next in line.
        run_ops(batched, scalar, alternating(300, first=2000))
        assert batched.stats.compactions_completed >= compactors
        assert len(batched._pending_compactions) > 0

    def test_last_compaction_completing_idles_the_regime(self):
        batched, scalar = loaded_twins(n_keys=512)
        assert batched._regime() == (1, True)
        result = run_ops(batched, scalar, alternating(100, first=600))
        assert batched.stats.compactions_completed == 1 and batched._regime() == (0, False)
        done_at = max(t.created_at for t in batched.layout.all_tables())
        assert result.start_time < done_at < result.end_times[-40]

    def test_reads_after_a_read_run_keep_their_plan_entries(self):
        batched, scalar = loaded_twins()
        for engine in (batched, scalar):
            engine.idle_until_compact()
        ops = [read(key(i)) for i in range(12)]
        ops += [write("a"), read(key(400)), write("b"), read(key(250)), read("a")]
        run_ops(batched, scalar, ops)
        assert batched.stats.memtable_hits == 2  # keys 400 and "a"

    def test_write_stall(self):
        costs = replace(DEFAULT_COSTS, flush_writer_bandwidth=400e3)
        batched, scalar = (
            LSMEngine(make_knobs(memtable_flush_writers=1), small_hardware(), costs=costs)
            for _ in range(2)
        )
        run_ops(batched, scalar, alternating(520))
        assert batched.stats.flushes == 4 and batched.stats.write_stall_seconds > 0

    def test_sync_barriers(self):
        batched, scalar = (
            LSMEngine(make_knobs(commitlog_sync_period_s=0.005), small_hardware())
            for _ in range(2)
        )
        run_ops(batched, scalar, alternating(300))
        assert batched.commitlog.total_syncs > 4

    def test_terms_are_asked_per_event_not_per_op(self, monkeypatch):
        """A count, not a timing, on a 512-op block at read ratio 0.5
        with a compaction pending: ``_charge_terms`` is entered once per
        block and once more after each event that can move the regime
        (a flush, a drain that empties the flush queue or completes a
        compaction) — 50,377 times per ``engine_ycsb`` repetition
        before the loop, 125 with it."""
        batched, scalar = loaded_twins(n_keys=512)
        assert batched.stats.compactions_started == 1 and batched._pending_compactions
        spec = WorkloadSpec(read_ratio=0.5, n_keys=600, value_bytes=200)
        block = OperationGenerator(
            spec, np.random.default_rng(5), loaded_keys=512
        ).operation_batch(512)
        kinds, names = block.kinds.tolist(), block.key_names()
        # The events, counted on the oracle twin op by op.
        events, before = 0, (scalar._regime(), scalar.stats.flushes)
        for j, kind in enumerate(kinds):
            apply_scalar_columns(scalar, [kind], [names[j]], [block.value_sizes[j]])
            after = (scalar._regime(), scalar.stats.flushes)
            events += (after[0] != before[0]) or (after[1] != before[1])
            before = after
        calls = []
        original = LSMEngine._charge_terms
        monkeypatch.setattr(
            LSMEngine, "_charge_terms", lambda self: calls.append(1) or original(self)
        )
        batched.execute_batch(block.kinds, names, block.value_sizes)
        assert engine_state(batched) == engine_state(scalar)
        assert events >= 3  # flushes, queue drained, the completion
        assert len(calls) <= 1 + events < 40


class TestInlineWrite:
    """A write's record, commit-log append, memtable put and clock are
    inline in the loop, on locals; each case is one of their edges,
    block ≡ one-op ≡ oracle through ``run_ops``."""

    @pytest.mark.parametrize("start", [0.0, 1e12])
    def test_a_key_overwritten_twice_in_one_block(self, start):
        """Each overwrite gives back the old version's bytes.  From a
        clock at 1e12 s every op's charge and tie-break is below its
        resolution: the clock stands still and the stamps tie, and a
        tie goes to the newer write."""
        batched, scalar = (
            LSMEngine(make_knobs(), small_hardware(), clock=SimClock(start)) for _ in range(2)
        )
        ops = [write("k", 300), read("k"), write(key(1)), write("k", 50), write("k", 120)]
        run_ops(batched, scalar, ops + [read("k"), write(key(2))])
        if start:
            assert batched.clock.now == start
            assert batched.memtable.get("k").timestamp == batched.memtable.get(key(1)).timestamp
        assert batched.get("k") == bytes(120)
        sizes = [rec.size_bytes for rec in batched.memtable.rows.values()]
        assert batched.memtable.size_bytes == sum(sizes) == 3 * 40 + 1 + 2 * 16 + 120 + 2 * 200

    def test_a_write_that_ends_a_segment_exactly(self):
        """Four 256-byte records fill a 1,024-byte segment: the fourth
        seals it, mid-block, and the fifth starts the next at 0."""
        batched, scalar = twin_engines(SIZE_TIERED, commitlog_segment_bytes=1024)
        ops = [write(key(i)) for i in range(3)] + [read(key(0)), write(key(3)), write(key(4))]
        run_ops(batched, scalar, ops + [read(key(3))])
        assert batched.commitlog.sealed_segments == [1024]
        assert batched.commitlog.active_segment_bytes == 256

    def test_a_sync_barrier_on_the_first_write_after_a_flush_stall(self):
        costs = replace(DEFAULT_COSTS, flush_writer_bandwidth=400e3)
        batched, scalar = (
            LSMEngine(
                make_knobs(memtable_flush_writers=1, commitlog_sync_period_s=0.05),
                small_hardware(),
                costs=costs,
            )
            for _ in range(2)
        )
        run_ops(batched, scalar, [write(key(i)) for i in range(383)])
        before = replace(batched.stats), batched.commitlog.total_syncs
        # Write 384 flushes and stalls; the write after it is the first
        # to see the stall's time since the last sync.
        run_ops(batched, scalar, [write(key(383)), read(key(0)), write(key(384)), write(key(385))])
        assert batched.stats.flushes == before[0].flushes + 1
        assert batched.stats.write_stall_seconds - before[0].write_stall_seconds > 0.05
        assert batched.commitlog.total_syncs == before[1] + 1

    def test_reads_of_keys_written_just_before_a_mid_block_flush(self):
        """Write 511 flushes: the reads after it find those keys in the
        new table, not in the rows the flush took away, and the writes
        after it go to the new rows."""
        batched, scalar = loaded_twins()
        before = replace(batched.stats)
        ops = [write(key(500 + i)) for i in range(12)]
        ops += [read(key(511)), read(key(510)), write("after"), read("after"), read(key(502))]
        run_ops(batched, scalar, ops)
        assert batched.stats.flushes == before.flushes + 1
        assert batched.stats.memtable_hits == before.memtable_hits + 1
        assert list(batched.memtable.rows) == ["after"]

    def test_a_flush_sees_the_memtable_log_and_clock_written_back(self, monkeypatch):
        """What ``_flush_memtable`` can read of the memtable, the log and
        the clock is, at every flush, what the one-op path and the
        oracle show it."""
        seen = {}
        flush = LSMEngine._flush_memtable

        def recording(engine):
            log = engine.commitlog
            seen.setdefault(id(engine), []).append((
                engine.memtable.size_bytes, len(engine.memtable), engine.clock.now,
                log.active_segment_bytes, log.total_bytes_written, log.last_sync_time,
                log.total_syncs,
            ))
            return flush(engine)

        monkeypatch.setattr(LSMEngine, "_flush_memtable", recording)
        batched, scalar = twin_engines(SIZE_TIERED, commitlog_sync_period_s=0.001)
        run_ops(batched, scalar, alternating(300))
        first, *others = seen.values()
        assert len(others) == 2 and len(first) == 2 and all(o == first for o in others)


class TestRejectedBlocks:
    """A block is checked whole before any op runs."""

    @pytest.mark.parametrize(
        "kinds, sizes, match",
        [
            ([OP_READ, OP_WRITE, OP_READ, 7], [0, 10, 0, 0], "unknown op kind 7"),
            ([OP_READ, OP_READ, OP_WRITE, OP_READ], None, "no value_sizes"),
            ([OP_READ, OP_WRITE, OP_READ, OP_READ], [0, 10, 0], "shape mismatch"),
            ([OP_READ, OP_WRITE, OP_WRITE, OP_READ], [0, 10, -1, 0], "negative"),
        ],
    )
    def test_rejected_block_leaves_the_engine_untouched(self, kinds, sizes, match):
        engine, _ = loaded_twins()
        engine.get(key(1))
        engine.get(key(200))  # two cached pages whose order a read would move
        before = copy.deepcopy(engine_state(engine))
        with pytest.raises(DatastoreError, match=match):
            engine.execute_batch(
                np.array(kinds),
                [key(1), "new", "newer", key(1)],
                None if sizes is None else np.array(sizes),
            )
        assert engine_state(engine) == before
        assert "new" not in engine.memtable

    def test_key_count_mismatch(self):
        engine, _ = loaded_twins()
        with pytest.raises(DatastoreError, match="shape mismatch"):
            engine.execute_batch(np.array([OP_READ, OP_READ]), [key(1)])


class TestBatchWritePayloads:
    def test_one_zero_payload_per_size_and_block(self):
        """Alternating ops and one long run share alike."""
        engine = LSMEngine(make_knobs(memtable_space_bytes=8 * MB), small_hardware())
        ops = [op for i in range(50) for op in (write(key(i), 100 + i % 2), read(key(i)))]
        ops += [write(key(100 + i), 100) for i in range(20)]  # and one long run
        run_ops(engine, copy.deepcopy(engine), ops)
        values = {id(rec.value): len(rec.value) for rec in engine.memtable.rows.values()}
        assert sorted(values.values()) == [100, 101]


class TestChargeTerms:
    """The per-regime charge terms are derived state and never stale:
    after any rebinding the next ops cost what they cost an engine in
    the same state that has never charged one."""

    OPS = [read(key(3)), write("a"), read(key(400)), write("b"), read("a")]

    @staticmethod
    def _warm_engine():
        engine, _ = loaded_twins(n_keys=512)
        run_ops(engine, copy.deepcopy(engine), TestChargeTerms.OPS)
        assert engine._terms is not None and engine.compaction_backlog_bytes > 0
        return engine

    def _assert_charges_like_fresh(self, engine, stale):
        fresh = copy.deepcopy(engine)
        fresh._terms = None
        run_ops(engine, fresh, self.OPS)
        # The rebinding mattered: the old terms would have charged otherwise.
        stale.execute_batch(
            np.array([op[0] for op in self.OPS]),
            [op[1] for op in self.OPS],
            np.array([op[2] for op in self.OPS]),
        )
        assert stale.clock.now != engine.clock.now

    @pytest.mark.parametrize(
        "attr, change",
        [
            # Values whose effect reaches the charge only through the terms.
            ("knobs", dict(concurrent_reads=64, concurrent_writes=64)),
            ("costs", dict(contention_quadratic=0.4)),
            ("hardware", dict(cpu_ghz=1.5)),
        ],
    )
    def test_rebinding_invalidates(self, attr, change):
        engine = self._warm_engine()
        stale = copy.deepcopy(engine)
        setattr(engine, attr, replace(getattr(engine, attr), **change))
        self._assert_charges_like_fresh(engine, stale)

    def test_reconfigure_invalidates(self):
        engine = self._warm_engine()
        stale = copy.deepcopy(engine)
        engine.reconfigure(replace(engine.knobs, concurrent_compactors=1, concurrent_reads=8))
        self._assert_charges_like_fresh(engine, stale)

    def test_regimes_are_tabled_not_recomputed(self, monkeypatch):
        engine = self._warm_engine()
        calls = []
        original = engine_module.BackgroundTerms
        monkeypatch.setattr(
            engine_module,
            "BackgroundTerms",
            lambda *args: calls.append(1) or original(*args),
        )
        run_ops(engine, copy.deepcopy(engine), self.OPS * 40)
        assert len(calls) <= 2 * 3  # one per regime met, on each twin

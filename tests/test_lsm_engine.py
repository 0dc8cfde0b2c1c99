
import copy
import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.lsm.background import compaction_rate
from repro.lsm.engine import OP_READ, OP_WRITE, LSMEngine
from repro.sim.clock import SimClock

from tests.conftest import make_knobs
from tests.oracles import reference_drain


def fill(engine, n, size=60, prefix="key"):
    for i in range(n):
        engine.put(f"{prefix}{i:05d}", b"v" * size)


class TestBasicOperations:
    def test_put_get(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"hello")
        assert engine.get("a") == b"hello"

    def test_get_missing_returns_none(self, small_knobs):
        assert LSMEngine(small_knobs).get("nope") is None

    def test_overwrite(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"one")
        engine.put("a", b"two")
        assert engine.get("a") == b"two"

    def test_delete(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        engine.delete("a")
        assert engine.get("a") is None

    def test_delete_nonexistent_is_fine(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.delete("ghost")
        assert engine.get("ghost") is None

    def test_operations_advance_clock(self, small_knobs):
        engine = LSMEngine(small_knobs)
        t0 = engine.clock.now
        engine.put("a", b"x")
        assert engine.clock.now > t0
        t1 = engine.clock.now
        engine.get("a")
        assert engine.clock.now > t1

    def test_stats_counting(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        engine.get("a")
        engine.delete("a")
        assert engine.stats.writes == 1
        assert engine.stats.reads == 1
        assert engine.stats.deletes == 1


class TestFlushing:
    def test_flush_triggered_by_threshold(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 500)
        assert engine.stats.flushes >= 1
        assert engine.sstable_count >= 1

    def test_values_survive_flush(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 500)
        engine.flush()
        assert engine.get("key00000") == b"v" * 60
        assert engine.get("key00499") == b"v" * 60

    def test_manual_flush_empties_memtable(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        table = engine.flush()
        assert table is not None
        assert len(engine.memtable) == 0

    def test_flush_empty_memtable_noop(self, small_knobs):
        assert LSMEngine(small_knobs).flush() is None

    def test_newest_version_wins_across_tables(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"old")
        engine.flush()
        engine.put("a", b"new")
        engine.flush()
        assert engine.get("a") == b"new"

    def test_memtable_version_beats_flushed(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"flushed")
        engine.flush()
        engine.put("a", b"fresh")
        assert engine.get("a") == b"fresh"

    def test_delete_shadows_flushed_value(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        engine.flush()
        engine.delete("a")
        engine.flush()
        assert engine.get("a") is None


class TestNulKeys:
    """Keys holding NULs, which a numpy string column would truncate, read
    back exactly on every read path: ``'a\x00'`` is not ``'a'``."""

    PROBES = ["a", "a\x00", "\x00", "b", "a\x00\x00"]

    def check(self, engine, oracle):
        assert {k: engine.get(k) for k in self.PROBES} == {
            k: oracle.get(k) for k in self.PROBES
        }
        # The NUL-free block is the one that takes a batch probe plan.
        for block in (self.PROBES, ["a", "b"]):
            # execute_batch returns no values: its reads must find and
            # charge exactly what get() does, one key at a time.
            batched, one_by_one = copy.deepcopy(engine), copy.deepcopy(engine)
            batched.execute_batch(np.full(len(block), OP_READ), block)
            for key in block:
                one_by_one.get(key)
            assert batched.stats == one_by_one.stats
            assert batched.clock.now == one_by_one.clock.now

    def test_reads_match_a_dict(self, small_knobs):
        engine, oracle = LSMEngine(small_knobs), {}
        for key, value in (("a\x00", b"one"), ("a", b"two"), ("\x00", b"three")):
            engine.put(key, value)
            oracle[key] = value
            self.check(engine, oracle)
            engine.flush()
            self.check(engine, oracle)
        engine.execute_batch(
            np.full(2, OP_WRITE), ["a\x00", "\x00"], np.array([4, 5])
        )
        oracle.update({"a\x00": bytes(4), "\x00": bytes(5)})
        self.check(engine, oracle)
        engine.flush()
        self.check(engine, oracle)


class TestCompaction:
    def test_size_tiered_compaction_runs(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 3000)
        engine.idle_until_compact()
        assert engine.stats.compactions_completed >= 1

    def test_compaction_reduces_table_count(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 3000)
        before = engine.sstable_count
        engine.idle_until_compact()
        assert engine.sstable_count < before

    def test_data_intact_after_compaction(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 2000)
        engine.idle_until_compact()
        for i in [0, 999, 1999]:
            assert engine.get(f"key{i:05d}") == b"v" * 60

    def test_deleted_stay_deleted_after_compaction(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 1000)
        for i in range(0, 1000, 100):
            engine.delete(f"key{i:05d}")
        fill(engine, 1000, prefix="other")
        engine.idle_until_compact()
        for i in range(0, 1000, 100):
            assert engine.get(f"key{i:05d}") is None

    def test_leveled_maintains_invariant(self, leveled_knobs):
        engine = LSMEngine(leveled_knobs)
        fill(engine, 4000)
        engine.idle_until_compact()
        engine.layout.check_leveled_invariant()

    def test_leveled_data_intact(self, leveled_knobs):
        engine = LSMEngine(leveled_knobs)
        fill(engine, 4000)
        engine.idle_until_compact()
        for i in [0, 1234, 3999]:
            assert engine.get(f"key{i:05d}") == b"v" * 60

    def test_leveled_builds_levels(self, leveled_knobs):
        engine = LSMEngine(leveled_knobs)
        fill(engine, 4000)
        engine.idle_until_compact()
        assert len(engine.layout.levels) >= 2
        assert engine.layout.level_bytes(1) > 0


class TestReconfigure:
    def test_cache_resize(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.reconfigure(make_knobs(file_cache_bytes=1024))
        assert engine.cache.capacity_bytes == 1024

    def test_strategy_switch_st_to_leveled(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 1500)
        engine.reconfigure(make_knobs(compaction_method=LEVELED))
        assert engine.strategy.name == LEVELED
        fill(engine, 1500, prefix="more")
        engine.idle_until_compact()
        assert engine.get("key00000") == b"v" * 60
        assert engine.get("more00000") == b"v" * 60

    def test_reconfigure_memtable_space(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.reconfigure(make_knobs(memtable_space_bytes=128 * 1024))
        assert engine.memtable.capacity_bytes == 128 * 1024

    def test_reconfigure_commitlog_knobs(self, small_knobs):
        """A reconfigured engine books the syncs and sealed segments of
        one built with the new knobs, in blocks and in one-op calls."""
        change = dict(commitlog_sync_period_s=0.001, commitlog_segment_bytes=1024)
        reconfigured = LSMEngine(small_knobs)
        reconfigured.reconfigure(dataclasses.replace(small_knobs, **change))
        built = LSMEngine(dataclasses.replace(small_knobs, **change))
        for engine in (reconfigured, built):
            engine.execute_batch(
                np.full(100, OP_WRITE), [f"key{i:05d}" for i in range(100)], np.full(100, 60)
            )
            fill(engine, 100, prefix="more")
        booked = [
            (engine.commitlog.total_syncs, engine.commitlog.sealed_segment_count)
            for engine in (reconfigured, built)
        ]
        assert booked[0] == booked[1] and min(booked[1]) > 0


class TestCostAccounting:
    def test_reads_probe_and_use_cache(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 600)
        engine.flush()
        engine.get("key00005")
        engine.get("key00005")
        assert engine.stats.bloom_checks > 0
        assert engine.stats.cache_hits >= 1

    def test_get_hashes_its_key_once_whatever_the_table_count(self, monkeypatch):
        from repro.lsm import bloom

        engine = LSMEngine(make_knobs(compaction_throughput_bytes=1024))
        fill(engine, 1500)
        assert engine.sstable_count >= 4
        hashed = []
        fnv1a = bloom._fnv1a
        monkeypatch.setattr(
            bloom, "_fnv1a", lambda data, seed=0: hashed.append(data) or fnv1a(data, seed)
        )
        assert engine.get("key00007") == b"v" * 60
        assert hashed == [b"key00007"] * 2  # the h1/h2 pair

    def test_write_heavier_with_background_compaction(self):
        """Compaction backlog should slow foreground ops (shared disk)."""
        busy = LSMEngine(make_knobs(compaction_throughput_bytes=1024))
        fill(busy, 3000)  # builds a backlog that drains very slowly
        t0 = busy.clock.now
        fill(busy, 200, prefix="probe")
        assert busy.clock.now - t0 > 0

    def test_shared_clock_injection(self, small_knobs):
        clock = SimClock(start=100.0)
        engine = LSMEngine(small_knobs, clock=clock)
        engine.put("a", b"x")
        assert engine.clock.now > 100.0


class TestBackgroundDrain:
    @staticmethod
    @functools.lru_cache(maxsize=None)
    def backlogged(method, compactors):
        """An engine with a queue of compactions (deep-copy before use)."""
        engine = LSMEngine(
            make_knobs(
                compaction_method=method,
                concurrent_compactors=compactors,
                compaction_throughput_bytes=64 * 1024,
            )
        )
        fill(engine, 1500, size=2000)
        assert len(engine._pending_compactions) > 20
        return engine

    @staticmethod
    def background(engine):
        return (
            [(p.task.task_id, p.remaining_bytes) for p in engine._pending_compactions],
            engine._flush_queue_bytes,
            engine.stats,
            [t.table_id for t in engine.layout.all_tables()],
            sorted(engine._busy_table_ids),
        )

    @settings(max_examples=20, deadline=None)
    @given(
        method=st.sampled_from([SIZE_TIERED, LEVELED]),
        compactors=st.sampled_from([1, 2, 3]),
        # Leveled drains at >= 45 MB/s whatever the throttle, size-tiered
        # at 64 KB/s per compactor here: both see partial and whole steps.
        steps=st.lists(
            st.sampled_from([1e-5, 1e-3, 0.01, 0.1, 1.0, 30.0]), min_size=1, max_size=12
        ),
    )
    def test_matches_the_reference_step_for_step(self, method, compactors, steps):
        engine = copy.deepcopy(self.backlogged(method, compactors))
        reference = copy.deepcopy(engine)
        for dt in steps:
            rate = compaction_rate(engine.knobs, len(engine._pending_compactions))
            engine._drain_background(dt, rate)
            reference_drain(reference, dt)
            assert self.background(engine) == self.background(reference)

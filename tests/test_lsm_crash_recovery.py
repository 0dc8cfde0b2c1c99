"""LSM crash/recovery: commitlog replay + SSTable scrub (Issue 4).

The central property: an engine killed at *any* point in an op stream
and rebuilt through :meth:`LSMEngine.recover` serves exactly the same
values as an engine that never crashed.  Only the clock differs (by the
replay/scrub cost recovery charges).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PersistenceError
from repro.faults.plan import CrashPoint, FaultPlan
from repro.lsm.engine import LSMEngine
from repro.recovery.crashsim import (
    generate_ops,
    run_ops,
    state_snapshot,
    states_equivalent,
)
from repro.runtime.events import EventBus

from tests.conftest import make_knobs

N_OPS = 120
KEYS = [f"key-{i:06d}" for i in range(40)]


def make_ops(seed=0):
    return generate_ops(np.random.default_rng(seed), N_OPS)


def crash_plan(*points):
    return FaultPlan(crash_points=tuple(CrashPoint(op=p) for p in points))


class TestCrashEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(crash_at=st.integers(min_value=0, max_value=N_OPS - 1))
    def test_crash_anywhere_serves_identical_state(self, crash_at):
        ops = make_ops()
        reference = LSMEngine(make_knobs())
        run_ops(reference, ops)
        crashed = LSMEngine(make_knobs())
        report = run_ops(crashed, ops, crash_plan=crash_plan(crash_at))
        assert report.crashes == 1
        assert states_equivalent(crashed, reference, KEYS)

    def test_multiple_crashes(self, small_knobs):
        ops = make_ops(seed=3)
        reference = LSMEngine(make_knobs())
        run_ops(reference, ops)
        crashed = LSMEngine(make_knobs())
        report = run_ops(crashed, ops, crash_plan=crash_plan(10, 50, 90))
        assert report.crashes == 3
        assert states_equivalent(crashed, reference, KEYS)

    def test_get_results_match_uninterrupted_run(self, small_knobs):
        ops = make_ops(seed=7)
        reference = LSMEngine(make_knobs())
        ref_report = run_ops(reference, ops)
        crashed = LSMEngine(make_knobs())
        crash_report = run_ops(crashed, ops, crash_plan=crash_plan(60))
        assert crash_report.get_results == ref_report.get_results


class TestCrashSemantics:
    def test_acknowledged_writes_survive(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"durable")
        engine.crash()
        engine.recover()
        assert engine.get("a") == b"durable"

    def test_crash_without_recover_loses_memtable(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"volatile")
        engine.crash()
        # Without replay the write is gone: that is what crash() models.
        assert len(engine.memtable) == 0

    def test_crash_preserves_sstables(self, small_knobs):
        engine = LSMEngine(small_knobs)
        for i in range(50):
            engine.put(f"k{i:04d}", b"v" * 200)
        engine.flush()
        assert engine.sstable_count > 0
        before = engine.sstable_count
        engine.crash()
        engine.recover()
        assert engine.sstable_count >= before

    def test_recovery_charges_simulated_time(self, small_knobs):
        engine = LSMEngine(small_knobs)
        for i in range(30):
            engine.put(f"k{i:04d}", b"v" * 100)
        engine.crash()
        t0 = engine.clock.now
        report = engine.recover()
        assert report.replayed_records == 30
        assert report.recovery_seconds > 0
        assert engine.clock.now == pytest.approx(t0 + report.recovery_seconds)

    def test_recovery_streams_at_full_disk_bandwidth(self, small_knobs):
        """The crash emptied the flush queue and the compactions, so the
        replay and scrub read with nothing in the background — not under
        the load of the process that died."""
        engine = LSMEngine(small_knobs)
        for i in range(820):
            engine.put(f"k{i:05d}", b"v" * 200)
        assert engine._pending_compactions and engine._flush_queue_bytes > 0
        engine.crash()
        report = engine.recover()
        nbytes = report.replayed_bytes + report.scrubbed_bytes
        assert report.replayed_records > 0 and report.scrubbed_tables > 0
        assert report.recovery_seconds == nbytes / engine.hardware.disk_seq_bandwidth

    def test_recovery_books_its_read_bytes(self, small_knobs):
        """Replay and scrub reads land in the disk's sequential-read
        accounting, with and without a scrub."""
        for scrub in (True, False):
            engine = LSMEngine(small_knobs)
            for i in range(820):
                engine.put(f"k{i:05d}", b"v" * 200)
            engine.crash()
            read_before = engine.disk.stats.seq_bytes_read
            report = engine.recover(scrub=scrub)
            nbytes = report.replayed_bytes + report.scrubbed_bytes
            assert report.replayed_bytes > 0
            assert (report.scrubbed_bytes > 0) == scrub
            assert engine.disk.stats.seq_bytes_read == read_before + nbytes

    def test_empty_commitlog_replay_tolerated(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.crash()
        report = engine.recover()
        assert report.replayed_records == 0
        assert engine.get("anything") is None

    def test_crash_right_after_flush_replays_nothing(self, small_knobs):
        engine = LSMEngine(small_knobs)
        for i in range(20):
            engine.put(f"k{i:04d}", b"v" * 100)
        engine.flush()
        engine.crash()
        report = engine.recover()
        assert report.replayed_records == 0
        assert engine.get("k0000") == b"v" * 100

    def test_tombstones_survive_crash(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        engine.flush()
        engine.delete("a")  # tombstone only in memtable + commitlog
        engine.crash()
        engine.recover()
        assert engine.get("a") is None

    def test_events_published(self, small_knobs):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        engine = LSMEngine(small_knobs, events=bus)
        engine.put("a", b"x")
        engine.crash()
        engine.recover()
        topics = [e.topic for e in seen]
        assert "fault.injected" in topics
        assert "recovery.journal_replayed" in topics


class TestScrub:
    def corrupt_one_table(self, engine):
        table = engine.layout.all_tables()[0]
        table.checksum ^= 0xDEADBEEF
        return table.table_id

    def test_clean_engine_scrubs_clean(self, small_knobs):
        engine = LSMEngine(small_knobs)
        for i in range(50):
            engine.put(f"k{i:04d}", b"v" * 200)
        engine.flush()
        assert engine.scrub() == []

    def test_corruption_detected(self, small_knobs):
        engine = LSMEngine(small_knobs)
        for i in range(50):
            engine.put(f"k{i:04d}", b"v" * 200)
        engine.flush()
        table_id = self.corrupt_one_table(engine)
        assert engine.scrub() == [table_id]

    def test_recover_raises_on_corruption(self, small_knobs):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, topic="recovery.corrupt_artifact")
        engine = LSMEngine(small_knobs, events=bus)
        for i in range(50):
            engine.put(f"k{i:04d}", b"v" * 200)
        engine.flush()
        self.corrupt_one_table(engine)
        engine.crash()
        with pytest.raises(PersistenceError, match="scrub"):
            engine.recover()
        assert len(seen) == 1

    def test_recover_without_scrub_skips_check(self, small_knobs):
        engine = LSMEngine(small_knobs)
        for i in range(50):
            engine.put(f"k{i:04d}", b"v" * 200)
        engine.flush()
        self.corrupt_one_table(engine)
        engine.crash()
        report = engine.recover(scrub=False)
        assert report.scrubbed_tables == 0


class TestCrashPointPlan:
    def test_plan_round_trip(self):
        plan = FaultPlan(crash_points=(CrashPoint(op=5), CrashPoint(op=17)))
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.crash_points[1].op == 17

    def test_negative_op_rejected(self):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            FaultPlan(crash_points=(CrashPoint(op=-1),)).validate()

    def test_plan_with_crash_points_not_empty(self):
        assert not FaultPlan(crash_points=(CrashPoint(op=0),)).is_empty

    def test_snapshot_does_not_advance_clock(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        t0 = engine.clock.now
        state_snapshot(engine, KEYS)
        assert engine.clock.now == t0

import pytest

from repro.lsm.commitlog import SYNC_OVERHEAD_SECONDS, CommitLog
from repro.lsm.record import Record


def rec(key="k", size=60):
    return Record(key=key, timestamp=1.0, value=b"x" * size)


class TestCommitLog:
    def test_append_accumulates_bytes(self):
        log = CommitLog(segment_size_bytes=10_000, sync_period_s=10.0)
        log.append(rec(), now=0.0)
        assert log.total_bytes_written == rec().size_bytes

    def test_segment_rollover(self):
        log = CommitLog(segment_size_bytes=200, sync_period_s=1e9)
        log.append(rec(size=160), now=1.0)  # 202 bytes >= 200 -> sealed
        assert log.sealed_segment_count == 1
        assert log.active_segment_bytes == 0

    def test_sync_overhead_on_period(self):
        log = CommitLog(segment_size_bytes=10**9, sync_period_s=5.0)
        log.append(rec(), now=0.0)
        extra = log.append(rec(), now=6.0)
        assert extra == pytest.approx(SYNC_OVERHEAD_SECONDS)

    def test_no_sync_within_period(self):
        log = CommitLog(segment_size_bytes=10**9, sync_period_s=5.0)
        log.append(rec(), now=0.0)
        assert log.append(rec(), now=1.0) == 0.0

    def test_sync_counter(self):
        log = CommitLog(segment_size_bytes=10**9, sync_period_s=1.0)
        for t in [0.0, 2.0, 4.0]:
            log.append(rec(), now=t)
        assert log.total_syncs >= 2

    def test_discard_flushed_recycles(self):
        log = CommitLog(segment_size_bytes=100, sync_period_s=1e9)
        log.append(rec(size=60), now=0.0)  # seals a segment
        freed = log.discard_flushed()
        assert freed > 0
        assert log.sealed_segment_count == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CommitLog(segment_size_bytes=0, sync_period_s=1.0)
        with pytest.raises(ValueError):
            CommitLog(segment_size_bytes=100, sync_period_s=0.0)


class TestSyncBaseline:
    """The first append establishes the sync clock, never charges it."""

    def test_first_append_past_period_is_not_charged(self):
        # Regression: a first write at now >= period used to pay a sync
        # barrier for an idle gap during which nothing existed to sync.
        log = CommitLog(segment_size_bytes=10**9, sync_period_s=5.0)
        assert log.append(rec(), now=100.0) == 0.0
        assert log.total_syncs == 0

    def test_period_measured_from_first_append(self):
        log = CommitLog(segment_size_bytes=10**9, sync_period_s=5.0)
        log.append(rec(), now=100.0)
        assert log.append(rec(), now=104.0) == 0.0
        assert log.append(rec(), now=105.0) == pytest.approx(SYNC_OVERHEAD_SECONDS)


class TestSegmentBoundary:
    def test_exact_boundary_seals_segment(self):
        log = CommitLog(segment_size_bytes=rec().size_bytes, sync_period_s=1e9)
        log.append(rec(), now=0.0)  # lands exactly on the boundary
        assert log.sealed_segment_count == 1
        assert log.active_segment_bytes == 0

    def test_one_byte_under_boundary_stays_active(self):
        log = CommitLog(segment_size_bytes=rec().size_bytes + 1, sync_period_s=1e9)
        log.append(rec(), now=0.0)
        assert log.sealed_segment_count == 0
        assert log.active_segment_bytes == rec().size_bytes


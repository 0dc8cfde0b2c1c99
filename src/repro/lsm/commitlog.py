"""Commit log: the sequential write-ahead cost of every write.

Every write is appended here before it is acknowledged (paper §2.2.1,
Figure 2).  Appends are sequential disk I/O; ``commitlog_sync_period_in_ms``
controls how often the log fsyncs in periodic mode (each sync adds a
fixed overhead), and segments of ``commitlog_segment_size_in_mb`` are
recycled once the corresponding memtables flush.

The log models cost only: it counts bytes, segments and sync barriers
and keeps no records, because the engine models steady-state
throughput, not restarts.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lsm.record import Record

#: Seconds of disk time per fsync barrier (ordering + device flush).
SYNC_OVERHEAD_SECONDS = 0.004


class CommitLog:
    """Byte-accounting commit log with periodic-sync cost modelling."""

    def __init__(self, segment_size_bytes: int, sync_period_s: float):
        if segment_size_bytes <= 0:
            raise ValueError("segment size must be positive")
        if sync_period_s <= 0:
            raise ValueError("sync period must be positive")
        self.segment_size_bytes = int(segment_size_bytes)
        self.sync_period_s = float(sync_period_s)
        # Public because the engine's op loop holds them in locals for a
        # block (see append).
        self.active_segment_bytes = 0
        self.sealed_segments: List[int] = []
        self.total_bytes_written = 0
        self.total_syncs = 0
        # The sync clock starts at the first append, not at an implicit
        # t=0: a log whose first write lands at now >= period used to be
        # charged a spurious sync barrier for the idle gap before any
        # bytes existed to sync.
        self.last_sync_time: Optional[float] = None

    @property
    def sealed_segment_count(self) -> int:
        return len(self.sealed_segments)

    def append(self, record: Record, now: float) -> float:
        """Append a record; returns *extra* disk seconds beyond the
        streaming byte cost (i.e., any sync barrier crossed).

        The caller charges the byte cost via the disk model; this method
        only tracks segment roll-over and periodic sync overhead.
        ``LSMEngine._execute`` appends its writes with an inline copy of
        this method, on the fields held in its locals; the block ==
        one-op == oracle check (``tests/oracles.py`` runs this one)
        keeps the two equal.
        """
        nbytes = record.size_bytes
        self.active_segment_bytes += nbytes
        self.total_bytes_written += nbytes
        extra = 0.0
        # ``>=`` on purpose: a record that lands exactly on the segment
        # boundary belongs to the segment it filled, and the next append
        # starts a fresh one at 0 bytes.
        if self.active_segment_bytes >= self.segment_size_bytes:
            self.sealed_segments.append(self.active_segment_bytes)
            self.active_segment_bytes = 0
        if self.last_sync_time is None:
            # First append ever: establish the sync baseline without
            # charging a barrier (there was nothing to sync before now).
            self.last_sync_time = now
        elif now - self.last_sync_time >= self.sync_period_s:
            self.last_sync_time = now
            self.total_syncs += 1
            extra += SYNC_OVERHEAD_SECONDS
        return extra

    def discard_flushed(self) -> int:
        """Recycle sealed segments after a memtable flush; returns bytes."""
        freed = sum(self.sealed_segments)
        self.sealed_segments.clear()
        return freed

    def __repr__(self) -> str:
        return (
            f"CommitLog(active={self.active_segment_bytes}B, "
            f"sealed={len(self.sealed_segments)}, total={self.total_bytes_written}B)"
        )

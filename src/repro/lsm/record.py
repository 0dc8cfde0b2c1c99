"""Row records and tombstones."""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

#: Fixed per-record storage overhead (key bytes, timestamps, row header).
RECORD_OVERHEAD_BYTES = 40


class Record(tuple):
    """One row version: a key, a timestamp and a value.

    ``value is None`` marks a tombstone (a delete marker).  Ordering is by
    ``(key, timestamp)`` so merged iteration during compaction can pick
    the newest version of each key.  A record is an immutable tuple
    ``(key, timestamp, value, size_bytes)``: its on-disk footprint is
    computed once, when it is built, because every write reads it
    several times (commit log, memtable, the op's charge).
    ``LSMEngine._execute`` builds its writes' tuples directly, with the
    size computed as here.
    """

    __slots__ = ()

    def __new__(cls, key: str, timestamp: float, value: Optional[bytes] = None) -> "Record":
        size = RECORD_OVERHEAD_BYTES + len(key) + (0 if value is None else len(value))
        return tuple.__new__(cls, (key, timestamp, value, size))

    def __getnewargs__(self):
        return self[:3]

    key = property(itemgetter(0))
    timestamp = property(itemgetter(1))
    value = property(itemgetter(2))
    #: Approximate on-disk footprint of this record.
    size_bytes = property(itemgetter(3))

    @property
    def is_tombstone(self) -> bool:
        return self[2] is None

    @staticmethod
    def tombstone(key: str, timestamp: float) -> "Record":
        return Record(key=key, timestamp=timestamp, value=None)

    def supersedes(self, other: "Record") -> bool:
        """Whether this version should win over ``other`` for the same key."""
        if self[0] != other[0]:
            raise ValueError("cannot compare versions of different keys")
        return self[1] >= other[1]

    def __repr__(self) -> str:
        return f"Record(key={self[0]!r}, timestamp={self[1]!r}, value={self[2]!r})"

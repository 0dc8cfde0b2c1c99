"""In-memory write-back cache of rows (Cassandra's Memtable).

Writes are batched here until the fill fraction crosses
``memtable_cleanup_threshold``, at which point the engine flushes the
contents to a new immutable SSTable (paper §2.2.1).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.lsm.record import Record


class Memtable:
    """Mutable map of key -> newest Record with byte accounting."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("memtable capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._rows: Dict[str, Record] = {}
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def size_bytes(self) -> int:
        return self._bytes

    @property
    def fill_fraction(self) -> float:
        return self._bytes / self.capacity_bytes

    def put(self, record: Record) -> int:
        """Insert or overwrite a row version (newest timestamp wins);
        returns :attr:`size_bytes` after it, the flush trigger's input."""
        key = record.key
        existing = self._rows.get(key)
        if existing is not None:
            if not record.supersedes(existing):
                return self._bytes  # an older version never overwrites a newer one
            self._bytes -= existing.size_bytes
        self._rows[key] = record
        self._bytes += record.size_bytes
        return self._bytes

    def get(self, key: str) -> Optional[Record]:
        """Return the row version held here, tombstones included."""
        return self._rows.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def should_flush(self, cleanup_threshold: float) -> bool:
        """Flush trigger: fill fraction reached ``cleanup_threshold``."""
        return self._bytes >= cleanup_threshold * self.capacity_bytes

    def drain(self) -> Iterator[Record]:
        """Yield all records in key order and leave the memtable empty."""
        rows = self._rows
        self._rows = {}
        self._bytes = 0
        for key in sorted(rows):
            yield rows[key]

    def __repr__(self) -> str:
        return (
            f"Memtable({len(self._rows)} rows, {self._bytes}B, "
            f"fill={self.fill_fraction:.2%})"
        )

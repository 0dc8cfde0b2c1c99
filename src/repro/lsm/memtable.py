"""In-memory write-back cache of rows (Cassandra's Memtable).

Writes are batched here until the fill fraction crosses
``memtable_cleanup_threshold``, at which point the engine flushes the
contents to a new immutable SSTable (paper §2.2.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lsm.record import Record


class Memtable:
    """Mutable map of key -> newest Record with byte accounting.

    ``rows`` (key -> newest record) and ``size_bytes`` (their bytes) are
    public because the engine's op loop holds them in locals for a block
    (see :meth:`put`).
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("memtable capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.rows: Dict[str, Record] = {}
        self.size_bytes = 0

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def fill_fraction(self) -> float:
        return self.size_bytes / self.capacity_bytes

    def put(self, record: Record) -> int:
        """Insert or overwrite a row version (newest timestamp wins);
        returns :attr:`size_bytes` after it, the flush trigger's input.

        ``LSMEngine._execute`` applies its writes with an inline copy of
        this method, on the rows and byte count held in its locals; the
        block == one-op == oracle check (``tests/oracles.py`` runs this
        one) keeps the two equal."""
        key = record.key
        existing = self.rows.get(key)
        if existing is not None:
            if not record.supersedes(existing):
                return self.size_bytes  # an older version never overwrites a newer one
            self.size_bytes -= existing.size_bytes
        self.rows[key] = record
        self.size_bytes += record.size_bytes
        return self.size_bytes

    def get(self, key: str) -> Optional[Record]:
        """Return the row version held here, tombstones included."""
        return self.rows.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.rows

    def should_flush(self, cleanup_threshold: float) -> bool:
        """Flush trigger: fill fraction reached ``cleanup_threshold``."""
        return self.size_bytes >= cleanup_threshold * self.capacity_bytes

    def drain(self) -> List[Record]:
        """All records in key order; leaves the memtable empty (with a
        new ``rows`` map)."""
        rows = self.rows
        self.rows = {}
        self.size_bytes = 0
        return [rows[key] for key in sorted(rows)]

    def __repr__(self) -> str:
        return (
            f"Memtable({len(self.rows)} rows, {self.size_bytes}B, "
            f"fill={self.fill_fraction:.2%})"
        )

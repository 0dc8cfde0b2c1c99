"""Immutable sorted string tables (SSTables).

Each memtable flush produces one SSTable: records sorted by key, a bloom
filter, and a sparse block index.  SSTables are never modified; compaction
merges several into new ones and discards the inputs (paper §2.2.1).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.lsm.bloom import BloomFilter, _key_column, hash_keys
from repro.lsm.record import Record

#: Logical block size used for cache accounting (Cassandra reads 64k
#: buffered chunks through its file cache).
BLOCK_BYTES = 64 * 1024


class SSTable:
    """An immutable, sorted, bloom-filtered run of records.

    Records are stored key-sorted with one version per key (the flush /
    compaction that built the table already collapsed versions).
    """

    __slots__ = (
        "table_id",
        "level",
        "_keys",
        "_keys_arr",
        "_records",
        "bloom",
        "size_bytes",
        "created_at",
    )

    def __init__(
        self,
        table_id: int,
        records: Sequence[Record],
        fp_chance: float,
        level: int = 0,
        created_at: float = 0.0,
    ):
        if not records:
            raise ValueError("an SSTable cannot be empty")
        keys = [r.key for r in records]
        self._records: List[Record] = list(records)
        # One byte column checks the order, hashes the bloom and serves
        # batch probes (see keys_array); without one, the strings do.
        column = _key_column(keys)
        if column is not None:
            ordered = bool((column[:-1] < column[1:]).all())
            hashed = hash_keys(column)
        else:
            ordered = all(keys[i] < keys[i + 1] for i in range(len(keys) - 1))
            hashed = None
        if not ordered:
            raise ValueError("records must be strictly sorted by key")
        self.table_id = table_id
        self.level = level
        self._keys: List[str] = keys
        self.bloom = BloomFilter.from_keys(keys, fp_chance, hashed)
        self.size_bytes = sum(map(Record.size_bytes.fget, records))
        self.created_at = created_at
        self._keys_arr = column

    # -- pickling --------------------------------------------------------------

    def __getstate__(self):
        # The key column is derived state: pickles stay the records,
        # filter and metadata, and a restore builds the column again.
        return {
            s: getattr(self, s) for s in self.__slots__ if s != "_keys_arr"
        }

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._keys_arr = _key_column(self._keys)

    # -- metadata --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def key_count(self) -> int:
        return len(self._records)

    @property
    def min_key(self) -> str:
        return self._keys[0]

    @property
    def max_key(self) -> str:
        return self._keys[-1]

    def overlaps(self, other: "SSTable") -> bool:
        """Whether the key ranges of two tables intersect."""
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    def overlaps_range(self, min_key: str, max_key: str) -> bool:
        return self.min_key <= max_key and min_key <= self.max_key

    # -- reads ---------------------------------------------------------------

    def might_contain(self, key: str, hashed=None) -> bool:
        """Bloom-filter membership test (false positives possible).

        ``hashed`` is the key's :func:`~repro.lsm.bloom.hash_key` pair
        when the caller probes several tables with one key.
        """
        if key < self.min_key or key > self.max_key:
            return False
        if hashed is None:
            return self.bloom.might_contain(key)
        return self.bloom.might_contain_hashed(*hashed)

    def record_at(self, i: int) -> Record:
        """Record at a known sorted position (from a batched searchsorted)."""
        return self._records[i]

    def locate(self, key: str) -> Tuple[int, int]:
        """``(logical block, sorted position or -1 if absent)`` of ``key``
        from one bisect — what a point probe needs of a table."""
        n = len(self._keys)
        i = bisect.bisect_left(self._keys, key)
        row = i if i < n and self._keys[i] == key else -1
        # Records are roughly uniform in size; map record index -> block.
        return int(min(i, n - 1) * self.size_bytes / n) // BLOCK_BYTES, row

    def keys_array(self) -> Optional[np.ndarray]:
        """The sorted keys as one ASCII byte column (numpy ``S``), built
        with the table, for batched lookups; None when a batched lookup
        could not match :meth:`locate` exactly: a key is not ASCII or
        holds a NUL (see :func:`~repro.lsm.bloom._key_column`), or the
        table is so large that :func:`_blocks_of_rows`' product leaves
        float64's exact range.  Such a table is probed key by key.
        """
        if (len(self._keys) - 1) * self.size_bytes < 2**53:
            return self._keys_arr
        return None

    def records(self) -> Iterable[Record]:
        return iter(self._records)

    def __repr__(self) -> str:
        return (
            f"SSTable(id={self.table_id}, L{self.level}, {self.key_count} keys, "
            f"{self.size_bytes}B, [{self.min_key}..{self.max_key}])"
        )


def _blocks_of_rows(
    rows: np.ndarray, size_bytes: np.ndarray, key_count: np.ndarray
) -> np.ndarray:
    """:meth:`SSTable.locate`'s logical block, vectorized over rows of
    many tables: per row its *clamped* sorted position
    (``min(bisect_left(key), len - 1)``) and its table's ``size_bytes``
    and ``key_count``.  The float expression mirrors the scalar one; the
    int64 product is exact in float64 while it stays under 2**53, which
    :meth:`SSTable.keys_array` guarantees for every table it serves.
    """
    scaled = (rows * size_bytes).astype(np.float64) / key_count
    return np.trunc(scaled).astype(np.int64) // BLOCK_BYTES


def merge_records(
    runs: Sequence[Iterable[Record]],
    drop_tombstones: bool = False,
) -> List[Record]:
    """K-way merge of sorted runs, keeping the newest version per key.

    ``drop_tombstones`` is only safe when merging *all* tables that could
    contain older versions of a key (e.g. a full merge or bottom-level
    leveled compaction); otherwise tombstones must be retained so they
    keep shadowing older versions elsewhere.
    """
    newest: Dict[str, Record] = {}
    for run in runs:
        for rec in run:
            cur = newest.get(rec.key)
            if cur is None or rec.supersedes(cur):
                newest[rec.key] = rec
    merged = [newest[k] for k in sorted(newest)]
    if drop_tombstones:
        merged = [r for r in merged if not r.is_tombstone]
    return merged


def split_into_tables(
    records: Sequence[Record],
    max_table_bytes: int,
    next_id,
    fp_chance: float,
    level: int,
    created_at: float,
) -> List[SSTable]:
    """Chop a sorted record run into SSTables of bounded size.

    Used by leveled compaction, which maintains equal-sized,
    non-overlapping tables per level; ``next_id`` is a callable issuing
    fresh table ids.
    """
    tables: List[SSTable] = []
    chunk: List[Record] = []
    chunk_bytes = 0
    for rec in records:
        chunk.append(rec)
        chunk_bytes += rec.size_bytes
        if chunk_bytes >= max_table_bytes:
            tables.append(
                SSTable(next_id(), chunk, fp_chance, level=level, created_at=created_at)
            )
            chunk, chunk_bytes = [], 0
    if chunk:
        tables.append(
            SSTable(next_id(), chunk, fp_chance, level=level, created_at=created_at)
        )
    return tables

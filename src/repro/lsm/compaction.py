"""Compaction strategies: Size-Tiered and Leveled (paper §2.2.2).

Size-Tiered groups similar-sized SSTables into buckets and merges a
bucket once it holds ``min_threshold`` (default 4) tables — cheap for
writes, but reads may have to probe every table.  Leveled keeps
hierarchical levels of equal-sized, non-overlapping tables where each
level holds ~10x the previous one — reads probe at most one table per
level plus L0, at the cost of far more compaction I/O.

Strategies *propose* :class:`CompactionTask`s; the engine schedules the
background I/O on simulated time and calls back to apply the structural
result when a task completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.errors import ConfigurationError
from repro.lsm.sstable import SSTable

#: Cassandra's default size-tiered trigger: 4 similar-sized tables.
SIZE_TIERED_MIN_THRESHOLD = 4
#: Similar-sized bucketing window (Cassandra's bucket_low/bucket_high).
BUCKET_LOW = 0.5
BUCKET_HIGH = 1.5
#: Leveled fan-out: each level holds ~10x the keys of the previous one.
LEVEL_FANOUT = 10
#: L0 table count that triggers an L0->L1 merge.
L0_COMPACTION_TRIGGER = 4


def size_buckets(sizes: Sequence[float]) -> List[List[int]]:
    """Group positions in ``sizes`` by similar size (Cassandra's
    bucketing rule): smallest first, each joining the first bucket whose
    running average it lies within ``[BUCKET_LOW, BUCKET_HIGH]`` of."""
    buckets: List[List[int]] = []
    averages: List[float] = []
    for i in sorted(range(len(sizes)), key=sizes.__getitem__):
        size = sizes[i]
        placed = False
        for b, avg in enumerate(averages):
            if BUCKET_LOW * avg <= size <= BUCKET_HIGH * avg:
                buckets[b].append(i)
                averages[b] = sum(sizes[j] for j in buckets[b]) / len(buckets[b])
                placed = True
                break
        if not placed:
            buckets.append([i])
            averages.append(float(size))
    return buckets


@dataclass
class CompactionTask:
    """A proposed merge: input tables -> new tables at ``target_level``."""

    task_id: int
    input_tables: List[SSTable]
    target_level: int
    drop_tombstones: bool = False

    @property
    def input_bytes(self) -> int:
        return sum(t.size_bytes for t in self.input_tables)

    @property
    def io_bytes(self) -> float:
        """Total disk traffic: inputs are read and outputs written."""
        return 2.0 * self.input_bytes

    def __repr__(self) -> str:
        ids = [t.table_id for t in self.input_tables]
        return f"CompactionTask(#{self.task_id}, tables={ids}, ->L{self.target_level})"


class TableLayout:
    """The on-disk table arrangement: a list of levels of SSTables.

    Size-tiered keeps everything in level 0; leveled uses level 0 for raw
    flushes and maintains the sorted-run invariant in levels >= 1.
    Level-0 tables are ordered oldest-first; reads iterate them
    newest-first.  ``epoch`` counts structural changes: anything derived
    from the arrangement (the engine's probe plan) is valid for one epoch.
    """

    def __init__(self):
        self.levels: List[List[SSTable]] = [[]]
        self.epoch = 0

    # -- structure -----------------------------------------------------------

    def _ensure_level(self, level: int) -> None:
        while len(self.levels) <= level:
            self.levels.append([])

    def add_flushed(self, table: SSTable) -> None:
        """Install a fresh flush output at level 0."""
        self.levels[0].append(table)
        self.epoch += 1

    def add_at_level(self, table: SSTable, level: int) -> None:
        self._ensure_level(level)
        self.levels[level].append(table)
        if level >= 1:
            self.levels[level].sort(key=lambda t: t.min_key)
        self.epoch += 1

    def remove(self, tables: Iterable[SSTable]) -> None:
        doomed = {t.table_id for t in tables}
        for lvl in self.levels:
            lvl[:] = [t for t in lvl if t.table_id not in doomed]
        self.epoch += 1

    def all_tables(self) -> List[SSTable]:
        return [t for lvl in self.levels for t in lvl]

    @property
    def table_count(self) -> int:
        return sum(len(lvl) for lvl in self.levels)

    @property
    def total_bytes(self) -> int:
        return sum(t.size_bytes for t in self.all_tables())

    def level_bytes(self, level: int) -> int:
        if level >= len(self.levels):
            return 0
        return sum(t.size_bytes for t in self.levels[level])

    # -- read support -------------------------------------------------------------

    def read_candidates(self, key: str) -> List[SSTable]:
        """Tables to probe for ``key``, newest-version-first.

        Level 0 tables can overlap arbitrarily, so all are candidates
        (newest first).  In levels >= 1 the non-overlap invariant means at
        most one table per level can hold the key.
        """
        candidates: List[SSTable] = list(reversed(self.levels[0]))
        for lvl in self.levels[1:]:
            for t in lvl:
                if t.min_key <= key <= t.max_key:
                    candidates.append(t)
                    break
        return candidates

    def overlapping(self, level: int, min_key: str, max_key: str) -> List[SSTable]:
        if level >= len(self.levels):
            return []
        return [t for t in self.levels[level] if t.overlaps_range(min_key, max_key)]

    def check_leveled_invariant(self) -> None:
        """Raise AssertionError if levels >= 1 contain overlapping tables."""
        for li, lvl in enumerate(self.levels[1:], start=1):
            ordered = sorted(lvl, key=lambda t: t.min_key)
            for a, b in zip(ordered, ordered[1:]):
                if a.max_key >= b.min_key:
                    raise AssertionError(
                        f"level {li}: {a!r} overlaps {b!r}"
                    )

    def __repr__(self) -> str:
        shape = "/".join(str(len(lvl)) for lvl in self.levels)
        return f"TableLayout(levels={shape}, {self.total_bytes}B)"


class CompactionStrategy:
    """Interface: inspect a layout and propose next merge tasks."""

    name: str = "abstract"

    def propose(
        self,
        layout: TableLayout,
        busy_table_ids: Set[int],
        next_task_id,
    ) -> List[CompactionTask]:
        """Return tasks whose inputs avoid ``busy_table_ids``.

        ``next_task_id`` is a callable issuing task ids, so proposals stay
        deterministic and unique across the engine's lifetime.
        """
        raise NotImplementedError

    def target_table_bytes(self, level: int) -> Optional[int]:
        """Max output table size at ``level`` (None = unbounded)."""
        return None


class SizeTieredStrategy(CompactionStrategy):
    """Merge buckets of ``min_threshold`` similar-sized tables."""

    name = SIZE_TIERED

    def __init__(self, min_threshold: int = SIZE_TIERED_MIN_THRESHOLD, max_threshold: int = 32):
        if min_threshold < 2:
            raise ConfigurationError("size-tiered min_threshold must be >= 2")
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold

    def propose(self, layout, busy_table_ids, next_task_id):
        idle = [t for t in layout.levels[0] if t.table_id not in busy_table_ids]
        tasks: List[CompactionTask] = []
        for bucket in size_buckets([t.size_bytes for t in idle]):
            if len(bucket) >= self.min_threshold:
                chosen = [idle[i] for i in bucket[: self.max_threshold]]
                # Tombstones can be dropped only on a full merge of every
                # table (no older versions can hide elsewhere).
                full_merge = len(chosen) == layout.table_count
                tasks.append(
                    CompactionTask(
                        task_id=next_task_id(),
                        input_tables=chosen,
                        target_level=0,
                        drop_tombstones=full_merge,
                    )
                )
        return tasks


class LeveledStrategy(CompactionStrategy):
    """LevelDB-style leveled compaction with 10x fan-out."""

    name = LEVELED

    def __init__(self, sstable_target_bytes: int, fanout: int = LEVEL_FANOUT):
        if sstable_target_bytes <= 0:
            raise ConfigurationError("sstable target size must be positive")
        self.sstable_target_bytes = int(sstable_target_bytes)
        self.fanout = fanout

    def target_table_bytes(self, level: int) -> Optional[int]:
        return self.sstable_target_bytes

    def level_capacity_bytes(self, level: int) -> float:
        """Byte budget of ``level`` (level 1 = fanout x table size)."""
        if level == 0:
            return float(L0_COMPACTION_TRIGGER * self.sstable_target_bytes)
        return float(self.sstable_target_bytes * self.fanout**level)

    def propose(self, layout, busy_table_ids, next_task_id):
        tasks: List[CompactionTask] = []

        # L0 -> L1: triggered by accumulating flushes ("compaction is
        # triggered each time a MEMTable flush occurs" for ScyllaDB /
        # aggressively for leveled, paper §2.2.2).
        l0_idle = [t for t in layout.levels[0] if t.table_id not in busy_table_ids]
        if len(l0_idle) >= L0_COMPACTION_TRIGGER or (
            l0_idle and layout.level_bytes(0) > self.level_capacity_bytes(0)
        ):
            min_key = min(t.min_key for t in l0_idle)
            max_key = max(t.max_key for t in l0_idle)
            overlap = [
                t
                for t in layout.overlapping(1, min_key, max_key)
                if t.table_id not in busy_table_ids
            ]
            overlap_ok = all(
                t.table_id not in busy_table_ids
                for t in layout.overlapping(1, min_key, max_key)
            )
            if overlap_ok:
                tasks.append(
                    CompactionTask(
                        task_id=next_task_id(),
                        input_tables=l0_idle + overlap,
                        target_level=1,
                        drop_tombstones=len(layout.levels) <= 2,
                    )
                )

        # Li -> Li+1 spill-over when a level exceeds its budget.
        for li in range(1, len(layout.levels)):
            if layout.level_bytes(li) <= self.level_capacity_bytes(li):
                continue
            candidates = [
                t for t in layout.levels[li] if t.table_id not in busy_table_ids
            ]
            if not candidates:
                continue
            # Pick the oldest table to roll up (simple, deterministic).
            victim = min(candidates, key=lambda t: (t.created_at, t.table_id))
            overlap = layout.overlapping(li + 1, victim.min_key, victim.max_key)
            if any(t.table_id in busy_table_ids for t in overlap):
                continue
            bottom = li + 1 >= len(layout.levels) - 1 or all(
                layout.level_bytes(l) == 0 for l in range(li + 2, len(layout.levels))
            )
            tasks.append(
                CompactionTask(
                    task_id=next_task_id(),
                    input_tables=[victim] + overlap,
                    target_level=li + 1,
                    drop_tombstones=bottom,
                )
            )
        return tasks


def make_strategy(method: str, sstable_target_bytes: int) -> CompactionStrategy:
    """Instantiate the strategy named by the ``compaction_method`` knob."""
    if method == SIZE_TIERED:
        return SizeTieredStrategy()
    if method == LEVELED:
        return LeveledStrategy(sstable_target_bytes)
    raise ConfigurationError(f"unknown compaction method {method!r}")

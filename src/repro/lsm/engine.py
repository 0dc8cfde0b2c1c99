"""The materialized LSM engine.

A fully functional key-value store — real records, real bloom filters, a
real LRU file cache, real compaction merges — that charges every
operation simulated time through :mod:`repro.sim.costs`.  Flushes and
compactions run as *background work*: they are queued with byte sizes and
drained as the clock advances, stealing disk bandwidth and CPU from
foreground queries exactly as the paper describes (§2.2.2) and as
:mod:`repro.lsm.background` prices it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Deque, List, Optional, Sequence, Set, Tuple
from collections import deque

import numpy as np

from repro.errors import DatastoreError
from repro.lsm.background import BackgroundTerms, compaction_rate
from repro.lsm.bloom import hash_key, hash_keys
from repro.lsm.commitlog import CommitLog
from repro.lsm.compaction import (
    CompactionTask,
    TableLayout,
    make_strategy,
)
from repro.lsm.knobs import EngineKnobs
from repro.lsm.memtable import Memtable
from repro.lsm.record import Record
from repro.lsm.sstable import SSTable, merge_records, split_into_tables
from repro.sim.cache import LruFileCache
from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel
from repro.sim.costs import (
    CostConstants,
    DEFAULT_COSTS,
    read_cpu_seconds,
    write_cpu_seconds,
)
from repro.sim.hardware import DEFAULT_SERVER, HardwareSpec

#: Flush queue depth (in flush sizes) beyond which writes stall.
FLUSH_STALL_DEPTH = 2.0

#: Integer op-kind codes for vectorized operation blocks.  They live here
#: (not in :mod:`repro.workload`) because the import DAG runs lsm ->
#: workload: the workload generator emits these codes and the engine
#: consumes them without either layer reaching upward.
OP_READ = 0
OP_WRITE = 1
OP_DELETE = 2


@dataclass
class BatchResult:
    """Accounting for one :meth:`LSMEngine.execute_batch` call."""

    n_ops: int
    reads: int
    writes: int
    deletes: int
    start_time: float
    #: Simulated clock value after each op — exactly the trajectory
    #: ``clock.now`` traces through one-op calls (bit-identical).
    end_times: np.ndarray


@dataclass
class EngineStats:
    """Cumulative operation accounting."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    memtable_hits: int = 0
    bloom_checks: int = 0
    bloom_true_positives: int = 0
    tables_probed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    flushes: int = 0
    compactions_started: int = 0
    compactions_completed: int = 0
    compaction_bytes: float = 0.0
    write_stall_seconds: float = 0.0
    busy_seconds: float = 0.0


@dataclass
class _PendingCompaction:
    task: CompactionTask
    remaining_bytes: float


class _ProbePlan:
    """SSTable probe events for the reads of one block.

    ``names``/``h1``/``h2`` (key array and :func:`hash_keys` pair) are
    fixed for the block; ``blooms``/``starts``/``events`` are what
    :meth:`LSMEngine._replan` derived from them for the reads from
    ``base`` on under layout epoch ``epoch``: per read its bloom-check
    count and, in ``events[starts[i]:starts[i + 1]]``, one
    ``(table, cache page, sorted position or -1)`` per bloom-positive
    candidate in the scalar probe's order.
    """

    __slots__ = ("names", "h1", "h2", "epoch", "base", "blooms", "starts", "events")

    def __init__(self, names: np.ndarray, h1: np.ndarray, h2: np.ndarray):
        self.names, self.h1, self.h2 = names, h1, h2
        self.epoch = -1  # no layout has this epoch: the first read plans


class LSMEngine:
    """Log-structured merge engine over simulated hardware.

    Parameters
    ----------
    knobs:
        Resolved engine tuning values (from a datastore configuration).
    hardware:
        Simulated server; defaults to the paper's Dell R430.
    clock:
        Shared simulated clock (one per server).
    costs:
        Cost calibration; override in tests to probe sensitivities.
    """

    def __init__(
        self,
        knobs: EngineKnobs,
        hardware: HardwareSpec = DEFAULT_SERVER,
        clock: Optional[SimClock] = None,
        costs: CostConstants = DEFAULT_COSTS,
    ):
        self.knobs = knobs
        self.hardware = hardware
        self.clock = clock if clock is not None else SimClock()
        self.costs = costs
        self.stats = EngineStats()
        self.disk = DiskModel(hardware)

        self.memtable = Memtable(capacity_bytes=knobs.memtable_space_bytes)
        self.commitlog = CommitLog(
            segment_size_bytes=knobs.commitlog_segment_bytes,
            sync_period_s=knobs.commitlog_sync_period_s,
        )
        self.layout = TableLayout()
        self.cache = LruFileCache(capacity_bytes=knobs.file_cache_bytes)
        self.strategy = make_strategy(knobs.compaction_method, knobs.sstable_target_bytes)

        self._next_table_id = 0
        self._next_task_id = 0
        self._pending_compactions: Deque[_PendingCompaction] = deque()
        self._busy_table_ids: Set[int] = set()
        self._flush_queue_bytes = 0.0
        self._write_seq = 0  # tie-break timestamps for same-instant writes
        # Derived state, see _charge_terms: (knobs, costs, hardware,
        # {regime: terms}).
        self._terms: Optional[tuple] = None

    # ------------------------------------------------------------------ public API

    def put(self, key: str, value: bytes) -> None:
        """Durably write a whole-row upsert and charge its cost."""
        self._execute((OP_WRITE,), (key,), (value,))

    def delete(self, key: str) -> None:
        """Write a tombstone for ``key``."""
        self._execute((OP_DELETE,), (key,))

    def get(self, key: str) -> Optional[bytes]:
        """Read the newest value for ``key``; None if absent or deleted."""
        best = self._execute((OP_READ,), (key,))[1]
        if best is None or best.is_tombstone:
            return None
        return best.value

    def _probe_newest(self, key: str, plan: Optional[_ProbePlan] = None, k: int = 0):
        """Find the newest record for ``key`` without charging time.

        Probes the memtable, then every bloom-positive SSTable
        (Cassandra merges row fragments, so it cannot stop early),
        tallying bloom checks, index probes, cache traffic, and disk
        misses; the op loop converts the tallies into simulated time.
        The SSTable side is a list of probe events
        replayed against the LRU cache: those of read ``k`` of ``plan``
        (re-planned first if the layout moved since), or without a plan
        found table by table — any string, hashed once.  Returns
        ``(record, blooms, probes, cache_hits, disk_reads)``.
        """
        stats = self.stats
        stats.reads += 1
        best = self.memtable.get(key)
        if best is not None:
            stats.memtable_hits += 1

        if plan is not None:
            if plan.epoch != self.layout.epoch:
                self._replan(plan, k)
            i = k - plan.base
            blooms = plan.blooms[i]
            events = plan.events[plan.starts[i] : plan.starts[i + 1]]
        else:
            blooms, events = self._table_events(key)

        cache_hits = 0
        access = self.cache.access
        for table, page, row in events:
            if access(page):
                cache_hits += 1
            if row < 0:
                continue  # bloom false positive
            stats.bloom_true_positives += 1
            rec = table.record_at(row)
            if best is None or rec.supersedes(best):
                best = rec
        probes = len(events)
        stats.bloom_checks += blooms
        stats.tables_probed += probes
        stats.cache_hits += cache_hits
        stats.cache_misses += probes - cache_hits
        return best, blooms, probes, cache_hits, probes - cache_hits

    def _table_events(self, key: str) -> Tuple[int, list]:
        """``(bloom checks, probe events)`` of ``key``, found table by
        table — any string, hashed once."""
        candidates = self.layout.read_candidates(key)
        hashed = hash_key(key) if candidates else None
        events = []
        for table in candidates:
            if table.might_contain(key, hashed):
                block, row = table.locate(key)
                events.append((table, (table.table_id, block), row))
        return len(candidates), events

    def _plan(self, keys: Sequence[str]) -> Optional[_ProbePlan]:
        """An unbuilt probe plan for ``keys``; None when they do not hash
        as a batch (non-ASCII, any NUL), which leaves their reads on the
        table-by-table probe — correctness never depends on a plan."""
        if "\x00" in "".join(keys):  # a <U array would drop trailing NULs
            return None
        names = np.asarray(keys)
        hashed = hash_keys(names)
        return None if hashed is None else _ProbePlan(names, *hashed)

    def _replan(self, plan: _ProbePlan, k: int) -> None:
        """Derive ``plan`` for its reads from ``k`` on under the current layout.

        Bloom tests, range assignment and index lookups run across all
        of those reads with numpy, table by table in candidate-rank
        order; a stable sort by read then yields each read's events in
        exactly the order :meth:`TableLayout.read_candidates` gives the
        table-by-table probe, so the LRU replay, every tally and every
        stats counter come out bit-identical to it.
        """
        names, h1, h2 = plan.names[k:], plan.h1[k:], plan.h2[k:]
        n = len(names)
        blooms = np.zeros(n, dtype=np.int64)
        tables: List[SSTable] = []
        read_chunks: List[np.ndarray] = []
        block_chunks: List[np.ndarray] = []
        row_chunks: List[np.ndarray] = []

        def bloom_test(table: SSTable, in_range: np.ndarray) -> None:
            sub = in_range[table.bloom.might_contain_many(h1[in_range], h2[in_range])]
            if len(sub) == 0:
                return
            karr = table.keys_array()
            idx = np.searchsorted(karr, names[sub])
            clamped = np.minimum(idx, len(karr) - 1)
            tables.append(table)
            read_chunks.append(sub)
            block_chunks.append(table.block_of_many(clamped))
            row_chunks.append(np.where(karr[clamped] == names[sub], idx, -1))

        levels = self.layout.levels
        plan.epoch, plan.base = self.layout.epoch, k
        if any(t.keys_array() is None for level in levels for t in level):
            # A table holding a NUL key has no exact key array, so this
            # layout is probed table by table (the plan's keys hold none).
            found = [self._table_events(key) for key in names.tolist()]
            plan.blooms = [count for count, _ in found]
            plan.events = [event for _, events in found for event in events]
            plan.starts = np.cumsum([0] + [len(events) for _, events in found]).tolist()
            return
        # L0: every table is a candidate for every key, newest first; the
        # range check comes after the bloom counter, as in might_contain.
        blooms += len(levels[0])
        for table in reversed(levels[0]):
            in_range = np.flatnonzero(
                (names >= table.min_key) & (names <= table.max_key)
            )
            if len(in_range):
                bloom_test(table, in_range)
        # Levels >= 1: the candidate is the *first* range-matching table
        # in min_key order (read_candidates breaks on a match).  Tables
        # can transiently overlap mid-compaction, so a first-match sweep
        # over the level's few tables is required, not a searchsorted.
        for level in levels[1:]:
            unassigned = np.ones(n, dtype=bool)
            for table in level:
                matched = np.flatnonzero(
                    unassigned & (names >= table.min_key) & (names <= table.max_key)
                )
                if len(matched):
                    unassigned[matched] = False
                    blooms[matched] += 1
                    bloom_test(table, matched)

        plan.blooms = blooms.tolist()
        if not tables:
            plan.starts, plan.events = [0] * (n + 1), []
            return
        reads = np.concatenate(read_chunks)
        order = np.argsort(reads, kind="stable")  # chunks are in rank order
        owner = np.repeat(np.arange(len(tables)), [len(c) for c in read_chunks])[order]
        ids = np.array([t.table_id for t in tables])[owner]
        blocks = np.concatenate(block_chunks)[order]
        plan.starts = np.searchsorted(reads[order], np.arange(n + 1)).tolist()
        plan.events = list(
            zip(
                [tables[t] for t in owner.tolist()],
                zip(ids.tolist(), blocks.tolist()),
                np.concatenate(row_chunks)[order].tolist(),
            )
        )

    def execute_batch(
        self,
        kinds: np.ndarray,
        keys: Sequence[str],
        value_sizes: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """Apply one operation block — the serve hot path.

        ``kinds`` holds :data:`OP_READ`/:data:`OP_WRITE`/:data:`OP_DELETE`
        codes, ``keys`` the per-op key names, ``value_sizes`` the write
        payload sizes (zero-filled payloads are materialized, one per
        size and block: value *content* never affects stats, timing, or
        cache behaviour — only ``len(value)`` does).  The block is
        checked whole before any op runs, so a rejected block leaves the
        engine untouched.  Its reads share one probe plan (hashed once,
        re-derived when the layout moves) — the vectorized part; its ops
        are applied and charged one by one in :meth:`_execute`, the loop
        :meth:`get` / :meth:`put` / :meth:`delete` run one op of: stats,
        clock trajectory, cache state, and results are bit-identical to
        iterating the ops through them one at a time.
        """
        kinds = np.asarray(kinds)
        n = len(kinds)
        if len(keys) != n:
            raise DatastoreError(f"batch shape mismatch: {n} kinds vs {len(keys)} keys")
        is_read, is_write = kinds == OP_READ, kinds == OP_WRITE
        unknown = kinds[~(is_read | is_write | (kinds == OP_DELETE))]
        if len(unknown):
            raise DatastoreError(f"unknown op kind {unknown[0]} in batch")
        if value_sizes is not None:
            value_sizes = np.asarray(value_sizes, dtype=np.int64)
            if len(value_sizes) != n:
                raise DatastoreError(
                    f"batch shape mismatch: {n} kinds vs {len(value_sizes)} value_sizes"
                )
            if np.any(value_sizes[is_write] < 0):
                raise DatastoreError("negative write size in batch")
        elif is_write.any():
            raise DatastoreError("write ops in batch but no value_sizes")

        start = self.clock.now
        if n == 0:
            return BatchResult(0, 0, 0, 0, start, np.empty(0, dtype=np.float64))
        values = None
        if is_write.any():
            payloads = {size: bytes(size) for size in set(value_sizes[is_write].tolist())}
            values = list(map(payloads.get, value_sizes.tolist()))
        end_times, _ = self._execute(
            kinds.tolist(),
            keys,
            values,
            plan=self._plan([keys[j] for j in np.flatnonzero(is_read).tolist()]),
        )
        n_reads, n_writes = int(is_read.sum()), int(is_write.sum())
        end_times = np.array(end_times, dtype=np.float64)
        return BatchResult(n, n_reads, n_writes, n - n_reads - n_writes, start, end_times)

    def _execute(
        self,
        kinds: Sequence[int],
        keys: Sequence[str],
        values: Optional[Sequence[Optional[bytes]]] = None,
        plan: Optional[_ProbePlan] = None,
    ):
        """The op loop: every point op of a checked block, in one pass,
        and the one place a point op is applied and charged.

        ``values`` holds the write payloads by op and ``plan`` the
        block's probe plan.  Returns the clock after each op and the
        record the last read found.

        What depends only on ``knobs``/``costs`` is bound once; what
        depends on the background regime (the charge terms, the write's
        CPU quotient, the compaction rate) is held until an event that
        can move :meth:`_regime` — a flush, a drain that empties the
        flush queue or completes a compaction — and re-asked at the
        next op's charge, never earlier.
        """
        knobs, costs, stats = self.knobs, self.costs, self.stats
        dstats, memtable, pending = self.disk.stats, self.memtable, self._pending_compactions
        probe, mem_put, log_append = self._probe_newest, memtable.put, self.commitlog.append
        advance, drain = self.clock.advance, self._drain_background
        write_cpu, log_overhead = write_cpu_seconds(costs), costs.commitlog_overhead_bytes
        read_pool = costs.read_thread_hold / knobs.concurrent_reads
        write_pool = costs.write_thread_hold / knobs.concurrent_writes
        flush_bw = knobs.memtable_flush_writers * costs.flush_writer_bandwidth
        flush_at = knobs.memtable_cleanup_threshold * memtable.capacity_bytes
        end_times: List[float] = []
        now = self.clock.now
        terms = best = None
        k = 0  # reads done (the next one is read k of the plan)
        for j, kind in enumerate(kinds):
            key = keys[j]
            reading = kind == OP_READ
            if reading:
                best, blooms, probes, hits, disk = probe(key, plan, k)
                k += 1
            else:
                tombstone = kind == OP_DELETE
                # Strictly increasing even when the clock stands still.
                self._write_seq += 1
                rec = Record(key, now + self._write_seq * 1e-12,
                             None if tombstone else values[j])
                # Seconds owed to a commitlog sync barrier, if this
                # append crossed one.
                extra = log_append(rec, now)
                mem_put(rec)
                if tombstone:
                    stats.deletes += 1
                else:
                    stats.writes += 1
                if memtable.size_bytes >= flush_at:
                    flush_bytes = memtable.size_bytes
                    self._flush_memtable()
                    # If flush writers are behind, the write path stalls
                    # until the queue depth falls back under the limit.
                    max_queue = FLUSH_STALL_DEPTH * max(flush_bytes, 1)
                    if self._flush_queue_bytes > max_queue:
                        stall = (self._flush_queue_bytes - max_queue) / flush_bw
                        stats.write_stall_seconds += stall
                        extra += stall
                    terms = None

            # The op's demands over the capacity of each resource —
            # available cores (minus compaction CPU and contention),
            # leftover sequential bandwidth, leftover random IOPS, its
            # worker pool: the largest quotient is the time the system
            # needed to push this op through at full concurrency.
            if terms is None:
                terms = self._charge_terms()
                cores, read_contention = terms.cores, terms.read_contention
                seq_bandwidth, rand_iops = terms.seq_bandwidth, terms.rand_iops
                write_dt_cpu = write_cpu * terms.write_contention / cores
                compaction_rate = terms.compaction_rate
            if reading:
                cpu = read_cpu_seconds(blooms, probes, hits, costs)
                dt_cpu, dt_pool = cpu * read_contention / cores, read_pool
                dt_seq = dt_rand = extra = 0.0
                if disk:
                    dstats.random_reads += disk
                    dt_rand = disk / rand_iops
            else:
                log_bytes = rec.size_bytes + log_overhead
                dstats.seq_bytes_written += log_bytes
                dt_cpu, dt_pool = write_dt_cpu, write_pool
                dt_seq, dt_rand = log_bytes / seq_bandwidth, 0.0
            dt = max(dt_cpu, dt_seq, dt_rand, dt_pool) + extra
            stats.busy_seconds += dt
            now = advance(dt)
            end_times.append(now)
            if (pending or self._flush_queue_bytes > 0) and drain(dt, compaction_rate):
                terms = None
        return end_times, best

    def flush(self) -> Optional[SSTable]:
        """Force-flush the memtable (used on shutdown / phase boundaries)."""
        return self._flush_memtable()

    def reconfigure(self, knobs: EngineKnobs) -> None:
        """Apply a new configuration online (Rafiki's actuation step).

        Cache resizes in place; a compaction-strategy change installs a
        new strategy whose proposals progressively rewrite the layout —
        mirroring ``ALTER TABLE ... WITH compaction`` semantics.
        """
        old = self.knobs
        self.knobs = knobs
        if knobs.file_cache_bytes != old.file_cache_bytes:
            self.cache.resize(knobs.file_cache_bytes)
        if (
            knobs.compaction_method != old.compaction_method
            or knobs.sstable_target_bytes != old.sstable_target_bytes
        ):
            self.strategy = make_strategy(
                knobs.compaction_method, knobs.sstable_target_bytes
            )
            self._propose_compactions()
        if knobs.memtable_space_bytes != old.memtable_space_bytes:
            self.memtable.capacity_bytes = knobs.memtable_space_bytes

    # -- introspection ---------------------------------------------------------

    @property
    def sstable_count(self) -> int:
        return self.layout.table_count

    @property
    def pending_compaction_bytes(self) -> float:
        return sum(p.remaining_bytes for p in self._pending_compactions)

    @property
    def compaction_backlog_bytes(self) -> float:
        """All background work owed: queued flushes + in-flight compactions."""
        return self._flush_queue_bytes + self.pending_compaction_bytes

    def idle_until_compact(self, max_seconds: float = 3600.0) -> float:
        """Let background work drain (between benchmark phases)."""
        start = self.clock.now
        step = 0.25
        while self._pending_compactions or self._flush_queue_bytes > 0:
            if self.clock.now - start > max_seconds:
                break
            self.clock.advance(step)
            self._drain_background(
                step, compaction_rate(self.knobs, len(self._pending_compactions))
            )
        return self.clock.now - start

    # ------------------------------------------------------------------ write path

    def _flush_memtable(self) -> Optional[SSTable]:
        if len(self.memtable) == 0:
            return None
        records = list(self.memtable.drain())
        table = SSTable(
            table_id=self._issue_table_id(),
            records=records,
            fp_chance=self.knobs.bloom_fp_chance,
            level=0,
            created_at=self.clock.now,
        )
        self.layout.add_flushed(table)
        self._flush_queue_bytes += table.size_bytes
        self.commitlog.discard_flushed()
        self.stats.flushes += 1
        self._propose_compactions()
        return table

    def _issue_table_id(self) -> int:
        self._next_table_id += 1
        return self._next_table_id

    def _issue_task_id(self) -> int:
        self._next_task_id += 1
        return self._next_task_id

    # ------------------------------------------------------------------ timing

    def _regime(self) -> tuple:
        """``(active compactors, flush queue non-empty)``: all of the
        background state an op's charge depends on."""
        return (
            min(len(self._pending_compactions), self.knobs.concurrent_compactors),
            self._flush_queue_bytes > 0,
        )

    def _charge_terms(self) -> BackgroundTerms:
        """Charge terms of the current background regime.

        The :class:`~repro.lsm.background.BackgroundTerms` of
        :meth:`_regime`'s active compactors and of the flush writers at
        full bandwidth while the flush queue is non-empty.  They depend
        only on the regime and on ``knobs``/``costs``/``hardware``, so
        they are tabled per regime, and the table is dropped when one of
        the three is rebound (by identity — all three are frozen; the
        rule of ``AnalyticLSMModel._regime``).
        """
        table = self._terms
        if (
            table is None
            or table[0] is not self.knobs
            or table[1] is not self.costs
            or table[2] is not self.hardware
        ):
            table = self._terms = (self.knobs, self.costs, self.hardware, {})
        regime = self._regime()
        terms = table[3].get(regime)
        if terms is None:
            queued, flushing = regime
            flush_rate = (
                self.knobs.memtable_flush_writers * self.costs.flush_writer_bandwidth
                if flushing
                else 0.0
            )
            terms = table[3][regime] = BackgroundTerms(
                self.knobs, self.hardware, self.costs, queued, flush_rate
            )
        return terms

    def _drain_background(self, dt: float, rate: float) -> bool:
        """Drain ``dt`` seconds of queued flushes and, at ``rate`` input
        bytes/s, of compactions.  True when that emptied the flush queue
        or completed a compaction: all a drain can do to :meth:`_regime`.
        """
        moved = False
        # Flush queue drains at flush-writer bandwidth.
        queue = self._flush_queue_bytes
        if queue > 0:
            flush_bw = self.knobs.memtable_flush_writers * self.costs.flush_writer_bandwidth
            queue = self._flush_queue_bytes = max(0.0, queue - flush_bw * dt)
            moved = queue <= 0

        # Compaction drains at its current rate, parallel across the first
        # `concurrent_compactors` queued tasks.
        budget = rate * dt
        pending = self._pending_compactions
        compactors = self.knobs.concurrent_compactors
        while budget > 0 and pending:
            # The queue itself when all of it is active (changed after the turn).
            active = pending if len(pending) <= compactors else list(islice(pending, compactors))
            share = budget / len(active)
            consumed = 0.0
            finished = False
            for p in active:
                used = min(share, p.remaining_bytes)
                p.remaining_bytes -= used
                consumed += used
                finished = finished or p.remaining_bytes <= 0
            budget -= consumed
            if finished:
                moved = True
                for p in [p for p in pending if p.remaining_bytes <= 0]:
                    pending.remove(p)
                    self._complete_compaction(p.task)
            if consumed <= 0:
                break
        return moved

    # ------------------------------------------------------------------ compaction

    def _propose_compactions(self) -> None:
        tasks = self.strategy.propose(
            self.layout, self._busy_table_ids, self._issue_task_id
        )
        for task in tasks:
            self._pending_compactions.append(
                _PendingCompaction(task=task, remaining_bytes=float(task.io_bytes))
            )
            self._busy_table_ids.update(t.table_id for t in task.input_tables)
            self.stats.compactions_started += 1

    def _complete_compaction(self, task: CompactionTask) -> None:
        merged = merge_records(
            [t.records() for t in task.input_tables],
            drop_tombstones=task.drop_tombstones,
        )
        self.layout.remove(task.input_tables)
        for t in task.input_tables:
            self._busy_table_ids.discard(t.table_id)
            self.cache.invalidate_prefix(t.table_id)

        if merged:
            target_bytes = self.strategy.target_table_bytes(task.target_level)
            if target_bytes is None:
                table = SSTable(
                    table_id=self._issue_table_id(),
                    records=merged,
                    fp_chance=self.knobs.bloom_fp_chance,
                    level=task.target_level,
                    created_at=self.clock.now,
                )
                self.layout.add_at_level(table, task.target_level)
            else:
                for table in split_into_tables(
                    merged,
                    max_table_bytes=target_bytes,
                    next_id=self._issue_table_id,
                    fp_chance=self.knobs.bloom_fp_chance,
                    level=task.target_level,
                    created_at=self.clock.now,
                ):
                    self.layout.add_at_level(table, task.target_level)

        self.stats.compactions_completed += 1
        self.stats.compaction_bytes += task.input_bytes
        self.disk.account_compaction_bytes(task.io_bytes)
        self._propose_compactions()

    def __repr__(self) -> str:
        return (
            f"LSMEngine({self.strategy.name}, tables={self.sstable_count}, "
            f"mem={self.memtable.size_bytes}B, t={self.clock.now:.3f}s)"
        )

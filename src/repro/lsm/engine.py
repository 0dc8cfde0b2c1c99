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
from typing import Deque, List, Optional, Sequence, Set
from collections import deque

import numpy as np

from repro.errors import DatastoreError
from repro.lsm.background import BackgroundTerms, compaction_rate
from repro.lsm.bloom import _FilterBank, _key_column, hash_key, hash_keys
from repro.lsm.commitlog import SYNC_OVERHEAD_SECONDS, CommitLog
from repro.lsm.compaction import (
    CompactionTask,
    TableLayout,
    make_strategy,
)
from repro.lsm.knobs import EngineKnobs
from repro.lsm.memtable import Memtable
from repro.lsm.record import RECORD_OVERHEAD_BYTES, Record
from repro.lsm.sstable import SSTable, _blocks_of_rows, merge_records, split_into_tables
from repro.sim.cache import LruFileCache
from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel
from repro.sim.costs import (
    CostConstants,
    DEFAULT_COSTS,
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
    """SSTable probe work for the reads of one block.

    ``names``/``h1``/``h2`` (byte key column, :func:`hash_keys` pair) and
    ``order`` (the reads sorted by key) are fixed for the block;
    :meth:`LSMEngine._replan` derives the rest for the reads from some
    ``k`` on under the current layout: per read its bloom-check count,
    its true-positive count and, in ``pages[starts[i]:starts[i + 1]]``,
    the cache page of each bloom-positive candidate in the scalar
    probe's order — all a block's stats, clock and cache read of it.
    """

    __slots__ = ("names", "h1", "h2", "order", "blooms", "positives", "starts", "pages")

    def __init__(self, names: np.ndarray, h1: np.ndarray, h2: np.ndarray):
        self.names, self.h1, self.h2 = names, h1, h2
        self.order = np.argsort(names, kind="stable")


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
        # Derived state, see _replan: (layout epoch, the tables' key
        # columns in candidate rank or None, their filters' bank, min /
        # max keys, ids, sizes and key counts); kept out of pickles.
        self._index: Optional[tuple] = None

    def __getstate__(self):
        return {**self.__dict__, "_index": None}

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

    def _probe(self, key: str, best: Optional[Record]) -> tuple:
        """``(bloom checks, cache pages, true positives, newest record)``
        of ``key``, found table by table — any string, hashed once;
        ``best`` is the memtable's record or None."""
        candidates = self.layout.read_candidates(key)
        hashed = hash_key(key) if candidates else None
        pages, positives = [], 0
        for table in candidates:
            if table.might_contain(key, hashed):
                block, row = table.locate(key)
                pages.append((table.table_id, block))
                if row >= 0:  # else a bloom false positive
                    positives += 1
                    rec = table.record_at(row)
                    if best is None or rec.supersedes(best):
                        best = rec
        return len(candidates), pages, positives, best

    def _plan(self, keys: Sequence[str]) -> Optional[_ProbePlan]:
        """An unbuilt probe plan for ``keys``; None when there are none or
        they have no byte column (non-ASCII, any NUL): they probe table
        by table."""
        names = _key_column(keys) if keys else None
        return None if names is None else _ProbePlan(names, *hash_keys(names))

    def _replan(self, plan: _ProbePlan, k: int) -> None:
        """Derive ``plan`` for its reads from ``k`` on under the current layout.

        One pass over the tables in candidate rank (L0 newest first,
        then each level in ``min_key`` order): a table's key range is a
        slice of the reads sorted by key — every L0 table in range is a
        candidate, in a deeper level only the *first* (``read_candidates``
        breaks on a match; tables can overlap mid-compaction) — then one
        bloom test of all (table, read) pairs against the epoch's
        filters end to end, and per table one search over its positives
        and one look at the key it lands on (presence).  A stable sort
        by read leaves each read's pages in the order the table-by-table
        probe meets them, so the LRU replay and every tally come out
        bit-identical to it.  The tables' byte key columns, key ranges,
        ids, sizes and counts are held with the bank, per layout epoch;
        a layout with a table that has no column (see
        :meth:`SSTable.keys_array`) is probed table by table.
        """
        layout = self.layout
        if self._index is None or self._index[0] != layout.epoch:
            tables = list(reversed(layout.levels[0]))
            tables += [t for level in layout.levels[1:] for t in level]
            columns = [t.keys_array() for t in tables]
            if any(c is None for c in columns):
                self._index = (layout.epoch, None)
            else:
                self._index = (
                    layout.epoch,
                    columns,
                    _FilterBank([t.bloom for t in tables]),
                    np.array([c[0] for c in columns], dtype="S"),
                    np.array([c[-1] for c in columns], dtype="S"),
                    *np.array(
                        [(t.table_id, t.size_bytes, t.key_count) for t in tables],
                        dtype=np.int64,
                    ).reshape(-1, 3).T,
                )
        names = plan.names[k:]
        n = len(names)
        if self._index[1] is None:  # a table has no key column: table by table
            found = [self._probe(key, None) for key in names.astype(str).tolist()]
            plan.blooms = [f[0] for f in found]
            plan.pages = [page for f in found for page in f[1]]
            plan.positives = [f[2] for f in found]
            plan.starts = np.cumsum([0] + [len(f[1]) for f in found]).tolist()
            return
        _, columns, bank, min_keys, max_keys, ids, sizes, counts = self._index
        # Every L0 table counts a bloom check, in range or not (the range
        # check comes after the counter, as in might_contain).
        n_l0 = len(layout.levels[0])
        blooms = np.full(n, n_l0, dtype=np.int64)
        order = plan.order if k == 0 else plan.order[plan.order >= k] - k
        by_key = names[order]
        lo = np.searchsorted(by_key, min_keys, "left")
        hi = np.searchsorted(by_key, max_keys, "right")
        spans = [order[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
        owners = [t for t in range(n_l0) if len(spans[t])]
        chunks = [spans[t] for t in owners]
        first = n_l0
        for level in layout.levels[1:]:
            unassigned = np.ones(n, dtype=bool)
            for t in range(first, first + len(level)):
                matched = spans[t][unassigned[spans[t]]]
                if len(matched):
                    unassigned[matched] = False
                    blooms[matched] += 1
                    owners.append(t)
                    chunks.append(matched)
            first += len(level)
        plan.blooms = blooms.tolist()
        if not chunks:
            plan.starts, plan.pages, plan.positives = [0] * (n + 1), [], [0] * n
            return
        owner = np.repeat(owners, [len(c) for c in chunks])
        reads = np.concatenate(chunks)
        positive = bank.might_contain_pairs(owner, plan.h1[k:][reads], plan.h2[k:][reads])
        owner, reads = owner[positive], reads[positive]
        keys = names[reads]
        rows = np.empty(len(reads), dtype=np.int64)
        present = np.empty(len(reads), dtype=bool)
        # ``owner`` is non-decreasing (chunks went in rank order): one
        # search per table over its run of bloom positives.
        cuts = np.flatnonzero(np.diff(owner, prepend=-1, append=-1)).tolist()
        for a, b in zip(cuts, cuts[1:]):
            karr = columns[owner[a]]
            rows[a:b] = row = karr.searchsorted(keys[a:b])
            present[a:b] = karr.take(row, mode="clip") == keys[a:b]
        plan.positives = np.bincount(reads[present], minlength=n).tolist()
        count = counts[owner]
        blocks = _blocks_of_rows(np.minimum(rows, count - 1), sizes[owner], count)
        by_read = np.argsort(reads, kind="stable")
        plan.starts = np.searchsorted(reads[by_read], np.arange(n + 1)).tolist()
        plan.pages = list(zip(ids[owner[by_read]].tolist(), blocks[by_read].tolist()))

    def execute_batch(
        self,
        kinds: np.ndarray,
        keys: Sequence[str],
        value_sizes: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """Apply one operation block — the engine's hot path.

        ``kinds`` holds :data:`OP_READ`/:data:`OP_WRITE`/:data:`OP_DELETE`
        codes, ``keys`` the per-op key names, ``value_sizes`` the write
        payload sizes (one zero-filled payload per size and block: only
        ``len(value)`` ever affects stats, timing or the cache).  The
        block is checked whole before any op runs, so a rejected block
        leaves the engine untouched.  Its reads share one probe plan
        (hashed once, re-derived when the layout moves); its ops run one
        by one through :meth:`_execute`, the loop :meth:`get` /
        :meth:`put` / :meth:`delete` run one op of, so stats, clock
        trajectory, cache state and results are bit-identical to theirs.
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
        and the one place a point op is applied, probed and charged.

        ``values`` holds the write payloads by op and ``plan`` the
        block's probe plan (without one, SSTables are found table by
        table).  A read probes the memtable, then every bloom-positive
        SSTable (Cassandra merges row fragments, so it cannot stop
        early), replaying its pages against the LRU cache.  Returns the
        clock after each op and the record the last read found — found
        only without a plan (a one-op :meth:`get`): a planned read
        counts its true positives and resolves no record.

        What depends only on ``knobs``/``costs`` is bound once and the
        op tallies are locals, written to the stats once per block; what
        depends on the background regime (the charge terms, the larger of
        a write's CPU and pool quotients, the compaction rate) is held
        until an event that can move :meth:`_regime` — a flush, a drain
        that empties the flush queue or completes a compaction — and
        re-asked at the next op's charge, never earlier.
        ``Memtable.put``, ``CommitLog.append`` and ``SimClock.advance``
        run inline, on locals written back before a flush and when the
        block ends (the clock after every op, for ``created_at``) and
        re-bound after a flush.
        """
        knobs, costs, stats = self.knobs, self.costs, self.stats
        dstats, memtable, layout = self.disk.stats, self.memtable, self.layout
        log, clock, new_record = self.commitlog, self.clock, tuple.__new__
        pending, compactors = self._pending_compactions, knobs.concurrent_compactors
        replay, probe, drain_compactions = self.cache.replay, self._probe, self._drain_compactions
        write_cpu, log_overhead = write_cpu_seconds(costs), costs.commitlog_overhead_bytes
        read_base, bloom_cpu = costs.cpu_read_base, costs.cpu_bloom_check
        probe_cpu, hit_cpu = costs.cpu_probe, costs.cpu_cache_hit
        read_pool = costs.read_thread_hold / knobs.concurrent_reads
        write_pool = costs.write_thread_hold / knobs.concurrent_writes
        flush_bw = knobs.memtable_flush_writers * costs.flush_writer_bandwidth
        flush_at = knobs.memtable_cleanup_threshold * memtable.capacity_bytes
        deletes = memtable_hits = bloom_checks = true_positives = probed = cache_hits = 0
        busy, stalled = stats.busy_seconds, stats.write_stall_seconds
        seq_written, write_seq = dstats.seq_bytes_written, self._write_seq
        rows, mem_bytes, sealed = memtable.rows, memtable.size_bytes, log.sealed_segments
        segment, logged = log.active_segment_bytes, log.total_bytes_written
        last_sync, syncs = log.last_sync_time, log.total_syncs
        segment_at, sync_period = log.segment_size_bytes, log.sync_period_s
        end_times: List[float] = []
        now = clock.now
        terms = best = epoch = None  # epoch: the layout the plan was derived under
        k = 0  # reads done (the next one is read k of the plan)
        for j, kind in enumerate(kinds):
            key = keys[j]
            reading = kind == OP_READ
            if reading:
                best = rows.get(key)
                if best is not None:
                    memtable_hits += 1
                if plan is None:
                    blooms, pages, positives, best = probe(key, best)
                else:
                    if epoch != layout.epoch:
                        self._replan(plan, k)
                        epoch, base = layout.epoch, k
                        p_blooms, p_positives = plan.blooms, plan.positives
                        p_starts, p_pages = plan.starts, plan.pages
                    i = k - base
                    blooms, positives = p_blooms[i], p_positives[i]
                    pages = p_pages[p_starts[i] : p_starts[i + 1]]
                k += 1
                hits = replay(pages) if pages else 0
                probes = len(pages)
                disk = probes - hits
                bloom_checks += blooms
                true_positives += positives
                probed += probes
                cache_hits += hits
            else:
                # Strictly increasing even when the clock stands still.
                write_seq += 1
                stamp = now + write_seq * 1e-12
                if kind == OP_DELETE:
                    deletes += 1
                    value, size = None, RECORD_OVERHEAD_BYTES + len(key)
                else:
                    value = values[j]
                    size = RECORD_OVERHEAD_BYTES + len(key) + len(value)
                rec = new_record(Record, (key, stamp, value, size))
                # CommitLog.append; ``extra``: a sync barrier it crossed.
                segment += size
                logged += size
                if segment >= segment_at:
                    sealed.append(segment)
                    segment = 0
                extra = 0.0
                if last_sync is None:
                    last_sync = now
                elif now - last_sync >= sync_period:
                    last_sync = now
                    syncs += 1
                    extra = SYNC_OVERHEAD_SECONDS
                # Memtable.put: an older version never overwrites a newer one.
                old = rows.get(key)
                if old is None:
                    rows[key] = rec
                    mem_bytes += size
                elif stamp >= old[1]:
                    rows[key] = rec
                    mem_bytes += size - old[3]
                if mem_bytes >= flush_at:
                    flush_bytes = memtable.size_bytes = mem_bytes
                    log.active_segment_bytes, log.total_bytes_written = segment, logged
                    log.last_sync_time, log.total_syncs = last_sync, syncs
                    self._flush_memtable()
                    rows, mem_bytes = memtable.rows, memtable.size_bytes
                    # If flush writers are behind, the write path stalls
                    # until the queue depth falls back under the limit.
                    max_queue = FLUSH_STALL_DEPTH * max(flush_bytes, 1)
                    if self._flush_queue_bytes > max_queue:
                        stall = (self._flush_queue_bytes - max_queue) / flush_bw
                        stalled += stall
                        extra += stall
                    terms = None

            # The op's demands over the capacity of each resource —
            # available cores (minus compaction CPU and contention),
            # leftover sequential bandwidth, leftover random IOPS, its
            # worker pool: the largest quotient is the time the system
            # needed to push this op through at full concurrency.  A
            # resource the op does not use is left out of the max, taken
            # by compares (a max() call per op costs more).
            if terms is None:
                terms = self._charge_terms()
                cores, read_contention = terms.cores, terms.read_contention
                seq_bandwidth, rand_iops = terms.seq_bandwidth, terms.rand_iops
                write_floor = max(write_cpu * terms.write_contention / cores, write_pool)
                compaction_rate = terms.compaction_rate
            if reading:
                # read_cpu_seconds, inline (one call per op costs more).
                cpu = read_base + blooms * bloom_cpu + probes * probe_cpu + hits * hit_cpu
                dt = cpu * read_contention / cores
                if disk and disk / rand_iops > dt:
                    dt = disk / rand_iops
                if read_pool > dt:
                    dt = read_pool
            else:
                log_bytes = size + log_overhead
                seq_written += log_bytes
                dt = log_bytes / seq_bandwidth
                if write_floor > dt:
                    dt = write_floor
                dt += extra
            busy += dt
            now += dt
            clock.now = now
            end_times.append(now)

            # The op's share of background work (see _drain_background).
            queue = self._flush_queue_bytes
            if queue > 0:
                queue = self._flush_queue_bytes = max(0.0, queue - flush_bw * dt)
                if queue <= 0:
                    terms = None
            if pending:
                budget = compaction_rate * dt
                share = budget / len(pending)
                # The common drain, decided without a call: every queued
                # task active, none reaching its end, and the shares
                # summing back to the budget, so that _drain_compactions
                # would take exactly one turn and complete nothing.
                common, spent = len(pending) <= compactors, 0.0
                for p in pending:
                    if not common or p.remaining_bytes <= share:
                        common = False
                        break
                    spent += share
                if common and spent >= budget:
                    for p in pending:
                        p.remaining_bytes -= share
                elif drain_compactions(budget):
                    terms = None

        stats.reads += k
        stats.writes += len(end_times) - k - deletes
        stats.deletes += deletes
        stats.memtable_hits += memtable_hits
        stats.bloom_checks += bloom_checks
        stats.bloom_true_positives += true_positives
        stats.tables_probed += probed
        stats.cache_hits += cache_hits
        stats.cache_misses += probed - cache_hits
        stats.busy_seconds, stats.write_stall_seconds = busy, stalled
        dstats.random_reads += probed - cache_hits
        dstats.seq_bytes_written, self._write_seq = seq_written, write_seq
        memtable.size_bytes, log.active_segment_bytes = mem_bytes, segment
        log.total_bytes_written, log.last_sync_time, log.total_syncs = logged, last_sync, syncs
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
        # The op loop binds the log per block: the next one sees these.
        self.commitlog.sync_period_s = float(knobs.commitlog_sync_period_s)
        self.commitlog.segment_size_bytes = int(knobs.commitlog_segment_bytes)

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
        table = SSTable(
            table_id=self._issue_table_id(),
            records=self.memtable.drain(),
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
        emptied = False
        # Flush queue drains at flush-writer bandwidth.
        queue = self._flush_queue_bytes
        if queue > 0:
            flush_bw = self.knobs.memtable_flush_writers * self.costs.flush_writer_bandwidth
            queue = self._flush_queue_bytes = max(0.0, queue - flush_bw * dt)
            emptied = queue <= 0
        return self._drain_compactions(rate * dt) or emptied

    def _drain_compactions(self, budget: float) -> bool:
        """Spend ``budget`` input bytes on the queued compactions,
        parallel across the first ``concurrent_compactors``; True when
        one completed."""
        completed = False
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
                completed = True
                for p in [p for p in pending if p.remaining_bytes <= 0]:
                    pending.remove(p)
                    self._complete_compaction(p.task)
            if consumed <= 0:
                break
        return completed

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

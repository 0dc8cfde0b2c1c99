"""Batched analytic LSM performance model.

Evolves the same aggregate state as :class:`~repro.lsm.engine.LSMEngine`
— memtable fill, SSTable layout, compaction backlog, file-cache warmth —
in fixed time steps, pricing work through the *same* cost formulas
(:mod:`repro.sim.costs`) and background load (:mod:`repro.lsm.background`).
Each step solves the fluid bottleneck equation for the closed-loop
throughput the server can sustain at the current read ratio, then
applies that step's structural consequences (flushes, compaction
progress).  The equation's terms are derived as rarely as
what moves them: per regime — knobs, hardware, costs, profile, read
ratio (:class:`_RegimeTerms`); per structural segment — the layout, the
backlog, the flush flag (:class:`_SegmentTerms`); and per step only what
hangs on the cache warm-up ramp.  A step is float arithmetic; numpy is
used for the random draws alone, one block per run.

This is the fast path used for the paper's 220-point data collection,
the exhaustive-search baselines, and anything else that would need hours
of per-operation simulation.  ``tests/test_consistency.py`` checks that
it agrees with the materialized engine on ordering and trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Deque, List, Optional
from collections import deque

import numpy as np

from repro.config.cassandra import LEVELED
from repro.lsm.background import BackgroundTerms, compaction_rate
from repro.lsm.compaction import (
    L0_COMPACTION_TRIGGER,
    LEVEL_FANOUT,
    SIZE_TIERED_MIN_THRESHOLD,
    size_buckets,
)
from repro.lsm.knobs import EngineKnobs
from repro.lsm.record import RECORD_OVERHEAD_BYTES
from repro.lsm.sstable import BLOCK_BYTES
from repro.sim.costs import (
    CostConstants,
    DEFAULT_COSTS,
    commitlog_bytes_per_write,
    expected_version_spread,
    read_cpu_seconds,
    write_cpu_seconds,
)
from repro.sim.hardware import DEFAULT_SERVER, HardwareSpec
from repro.sim.rng import SeedLike, derive_rng

#: Seconds for the file cache to reach steady-state hit ratio from cold.
CACHE_WARMUP_SECONDS = 45.0

#: Softness of the bottleneck combination (higher = closer to hard min).
_SOFTMIN_POWER = 8.0


def _soft_min(caps) -> float:
    """Power-mean soft minimum of resource capacities.

    A hard ``min`` produces kinked response surfaces; real servers show
    rounded knees because nearly saturated resources already queue.  The
    power mean ``(sum c_i^-p)^(-1/p)`` sits a few percent below the
    binding cap when a second resource is close, and converges to the
    min as p grows.

    Scalar floats on purpose: ``**`` on a python float is libm's ``pow``
    on every host, where numpy's array ``pow`` follows the host's SIMD
    level and differs from it in the last ulp.
    """
    scale = min(caps) if caps else math.inf
    if 0.0 < scale < math.inf:
        # Every cap positive, the usual case: a +inf cap adds an exact
        # 0.0 to the sum and a NaN cap turns it to NaN (-> filtered below).
        total = 0.0
        for c in caps:
            total += (scale / c) ** _SOFTMIN_POWER
        if total == total:
            return scale * total ** (-1.0 / _SOFTMIN_POWER)
    finite = [c for c in caps if math.isfinite(c)]
    if not finite:
        return math.inf
    return _soft_min(finite) if min(finite) > 0 else 0.0


@dataclass(frozen=True)
class WorkloadProfile:
    """Workload characteristics that shape per-op costs (paper §3.3).

    ``krd_mean_ops`` is the mean key-reuse distance in operations (the
    paper fits an exponential distribution to it); ``update_fraction`` is
    the share of writes hitting existing keys (vs fresh inserts).
    Frozen: a model's profile is replaced (``dataclasses.replace``),
    never written into, so its identity keys the model's term table.
    """

    value_bytes: int = 200
    key_bytes: int = 16
    update_fraction: float = 0.3
    krd_mean_ops: float = 200_000.0

    @property
    def record_bytes(self) -> float:
        return RECORD_OVERHEAD_BYTES + self.key_bytes + self.value_bytes


@dataclass
class _BacklogTask:
    remaining_io_bytes: float
    kind: str          # "st_merge" | "l0_to_l1" | "spill"
    payload: tuple = ()


class _RegimeTerms:
    """The bottleneck equation's terms that move only with the regime.

    Derived state of one model: built from the ``knobs``, ``hardware``,
    ``costs`` and ``profile`` it holds (all frozen, so identity is value)
    and, for the mix-weighted half, the read ratio last solved for.
    Revalidated on every use (:meth:`AnalyticLSMModel._regime`); never
    pickled.
    """

    __slots__ = (
        "knobs", "hardware", "costs", "profile", "cache_pages", "steady_hit",
        "record_bytes", "insert_fraction", "flush_trigger", "half_flush_trigger",
        "flush_duty_rate", "read_ratio", "w", "w_cpu",
        "w_commitlog_bytes", "flush_cap", "write_pool_cap", "read_pool_cap",
        "segment",
    )

    def __init__(self, knobs, hardware, costs, profile):
        self.knobs, self.hardware, self.costs, self.profile = (
            knobs, hardware, costs, profile
        )
        # Steady-state che-approximation hit ratio of an overflowing
        # cache (see AnalyticLSMModel.cache_hit_ratio).
        self.cache_pages = knobs.file_cache_bytes / BLOCK_BYTES
        coverage = costs.cache_coverage_ops_per_page
        if knobs.compaction_method == LEVELED:
            coverage *= costs.leveled_cache_locality
        coverage_ops = self.cache_pages * coverage
        self.steady_hit = 1.0 - math.exp(-coverage_ops / profile.krd_mean_ops)
        self.record_bytes = profile.record_bytes
        self.insert_fraction = 1.0 - profile.update_fraction
        self.flush_trigger = knobs.flush_trigger_bytes
        self.half_flush_trigger = 0.5 * knobs.flush_trigger_bytes
        # Flushes are intermittent: half the writers' bandwidth on average.
        self.flush_duty_rate = (
            knobs.memtable_flush_writers * costs.flush_writer_bandwidth
        ) * 0.5
        self.read_ratio = None
        self.segment: Optional[_SegmentTerms] = None

    def set_mix(self, read_ratio: float) -> None:
        """Weight the per-class terms by the op mix ``read_ratio``."""
        knobs, costs, record_bytes = self.knobs, self.costs, self.record_bytes
        r = read_ratio
        w = 1.0 - r
        self.read_ratio, self.w = r, w
        self.segment = None      # its terms are weighted by this mix
        self.w_cpu = w * write_cpu_seconds(costs)
        self.w_commitlog_bytes = w * commitlog_bytes_per_write(record_bytes, costs)
        self.flush_cap = self.write_pool_cap = self.read_pool_cap = math.inf
        if w > 0:
            # Flush writers must keep pace with ingest.
            flush_bw = knobs.memtable_flush_writers * costs.flush_writer_bandwidth
            self.flush_cap = flush_bw / (w * record_bytes)
            self.write_pool_cap = knobs.concurrent_writes / (w * costs.write_thread_hold)
        # A denormal read ratio can underflow this product to 0.0; an
        # underflowed denominator means the cap imposes no constraint.
        if r * costs.read_thread_hold > 0:
            self.read_pool_cap = knobs.concurrent_reads / (r * costs.read_thread_hold)


class _SegmentTerms:
    """The bottleneck equation over one structural segment.

    A *structural segment* is a stretch of simulated time over which the
    tables a read checks, the backlog length and the flush flag hold
    still; within one, only the cache warm-up ramp moves the solve.
    Everything that does not depend on the ramp is worked out here,
    once, through the formulas of :mod:`repro.sim.costs` and the
    segment's :class:`~repro.lsm.background.BackgroundTerms`, and closed
    over by :attr:`solve`, which finishes the equation for a hit ratio.
    Derived state hung off the regime table it was weighted by (a
    rebuilt or re-mixed table drops it) and revalidated from its three
    structural inputs on every use (:meth:`AnalyticLSMModel._segment`).
    """

    __slots__ = ("n_checked", "n_backlog", "flushing", "comp_rate", "solve")

    def __init__(self, t: _RegimeTerms, n_checked, n_backlog, flushing):
        knobs, costs = t.knobs, t.costs
        self.n_checked, self.n_backlog, self.flushing = n_checked, n_backlog, flushing
        r, inf = t.read_ratio, math.inf

        # Read path: tables checked, version spread, candidates probed.
        tables = max(n_checked, 1.0)
        spread = expected_version_spread(tables, t.profile.update_fraction)
        touched = spread + knobs.bloom_fp_chance * max(n_checked - spread, 0.0)
        probed = min(touched, tables)
        cpu_read_fixed = read_cpu_seconds(n_checked, probed, 0.0, costs)
        cpu_cache_hit = costs.cpu_cache_hit

        # Background work steals sequential bandwidth and cores.
        bg = BackgroundTerms(
            knobs, t.hardware, costs, n_backlog, t.flush_duty_rate if flushing else 0.0
        )
        self.comp_rate = bg.compaction_rate
        cores, read_contention = bg.cores, bg.read_contention
        write_cpu = t.w_cpu * bg.write_contention
        # Sequential disk: commit-log bytes per write.
        seq_cap = bg.seq_bandwidth / t.w_commitlog_bytes if t.w > 0 else inf
        iops = bg.rand_iops
        flush_cap, write_pool_cap, read_pool_cap = (
            t.flush_cap, t.write_pool_cap, t.read_pool_cap
        )
        p = _SOFTMIN_POWER
        root = -1.0 / p

        def solve(hit: float) -> float:
            """The instant's half: what hangs on the cache hit ratio."""
            disk_probes = touched * (1.0 - hit)
            cpu_r = cpu_read_fixed + probed * hit * cpu_cache_hit
            cpu_per_op = r * cpu_r * read_contention + write_cpu
            cpu_cap = cores / cpu_per_op if cpu_per_op > 0 else inf
            # Random disk; the product underflows for a denormal read ratio.
            r_probes = r * disk_probes
            iops_cap = iops / r_probes if r_probes > 0 else inf
            # _soft_min of the six caps with no tuple built: the same
            # left-to-right sum (``0.0 + x`` is ``x``), and _soft_min
            # itself whenever a cap is not positive or the sum is NaN.
            # The scale is builtin ``min`` as a compare chain: the first
            # of tied values stays, and so does a NaN already held.
            scale = seq_cap if seq_cap < cpu_cap else cpu_cap
            scale = flush_cap if flush_cap < scale else scale
            scale = write_pool_cap if write_pool_cap < scale else scale
            scale = iops_cap if iops_cap < scale else scale
            scale = read_pool_cap if read_pool_cap < scale else scale
            if 0.0 < scale < inf:
                total = (
                    (scale / cpu_cap) ** p + (scale / seq_cap) ** p
                    + (scale / flush_cap) ** p + (scale / write_pool_cap) ** p
                    + (scale / iops_cap) ** p + (scale / read_pool_cap) ** p
                )
                if total == total:
                    return scale * total ** root
            return _soft_min(
                (cpu_cap, seq_cap, flush_cap, write_pool_cap, iops_cap, read_pool_cap)
            )

        self.solve = solve


def _node_seconds(model: "AnalyticLSMModel", read_ratio: float, dt: float):
    """One node stepped ``dt`` at a time at one read ratio, for a run, a
    bare solve and every live node of a ring: ``next()`` yields the
    capacity (solved, biased, clamped, modulated; before noise) and
    ``send((reads, writes))`` absorbs the served step.  A moved structure
    or a flush-flag flip ends the segment.  The bytes, clocks and op count
    live in locals, written back before every structural call and on
    ``close()``; the hit ratio is :meth:`AnalyticLSMModel._cache_hit`
    inline (a call per node-second would cost most of the kernel's gain).
    No builtin call per node-second either: a six-value ``min`` took
    223 ns where its compare chain takes 63 ns (CPython 3.11, 2-vCPU
    host), and module constants are read from locals."""
    t = model._regime(read_ratio)
    run_bias, modulation = model.run_bias, model._throughput_modulation
    record_bytes, insert_fraction = t.record_bytes, t.insert_fraction
    flush_trigger, half_flush_trigger = t.flush_trigger, t.half_flush_trigger
    pages, steady_hit, io_factor = t.cache_pages, t.steady_hit, t.costs.compaction_io_factor
    # ``max(working set, 1.0) <= pages`` as one compare: no page fits under 1.0.
    fits_pages = pages if 1.0 <= pages else -math.inf
    memtable, dataset, exp = model.memtable_bytes, model.dataset_bytes, math.exp
    warmup_s, block_bytes = CACHE_WARMUP_SECONDS, BLOCK_BYTES
    clock, age, ops = model.t, model.cache_age, model.total_ops
    s = None
    try:
        while True:
            if s is None:
                model.memtable_bytes, model.dataset_bytes = memtable, dataset
                model.t, model.cache_age, model.total_ops = clock, age, ops
                s = model._segment(t)
                solve, flushing, comp_rate = s.solve, s.flushing, s.comp_rate
                # The queue holds io-bytes (read+write); drain at io-rate.
                budget = comp_rate * io_factor * dt
                head = model.backlog[0] if comp_rate > 0.0 else None
            if pages <= 0:
                hit = 0.0
            else:
                hit = 1.0 - exp(-age / warmup_s)
                if not dataset / block_bytes <= fits_pages:
                    hit = steady_hit * hit
            x = solve(hit) * run_bias
            x = 1.0 if x < 1.0 else x
            if modulation is not None:
                x *= modulation(clock)
            reads, writes = yield x
            flush = False
            if writes > 0:
                filled = memtable + writes * record_bytes
                if filled < flush_trigger:
                    dataset += writes * insert_fraction * record_bytes
                    memtable = filled
                else:
                    flush = True
            if flush or head is not None and not head.remaining_io_bytes > budget > 0.0:
                model.memtable_bytes, model.dataset_bytes = memtable, dataset
                model.t, model.cache_age, model.total_ops = clock, age, ops
                if flush:
                    model._apply_writes(writes)
                model._drain_background(dt)
                memtable, dataset = model.memtable_bytes, model.dataset_bytes
                s = None
            elif head is not None:
                head.remaining_io_bytes -= budget
            clock, age, ops = clock + dt, age + dt, ops + (reads + writes)
            if s is not None and (memtable > half_flush_trigger) is not flushing:
                s = None
            yield
    finally:
        model.memtable_bytes, model.dataset_bytes = memtable, dataset
        model.t, model.cache_age, model.total_ops = clock, age, ops


class AnalyticLSMModel:
    """Fluid-approximation LSM server with the engine's cost model."""

    #: Hook for a self-tuning store: ``f(t) -> factor`` the clamped solve
    #: at simulated time ``t`` is multiplied by (``None``: no modulation).
    _throughput_modulation = None

    def __init__(
        self,
        knobs: EngineKnobs,
        hardware: HardwareSpec = DEFAULT_SERVER,
        costs: CostConstants = DEFAULT_COSTS,
        profile: Optional[WorkloadProfile] = None,
        seed: SeedLike = 0,
        noise_sigma: float = 0.015,
        run_bias_sigma: float = 0.02,
    ):
        self.knobs = knobs
        self.hardware = hardware
        self.costs = costs
        self.profile = profile if profile is not None else WorkloadProfile()
        self.rng = derive_rng(seed)
        self.noise_sigma = noise_sigma
        # Run-level measurement bias: two benchmark runs of the same
        # (config, workload) on real hardware differ by a few percent
        # (thermal state, page-cache luck, JIT warmth).  Sampled once per
        # server instance.
        if run_bias_sigma > 0:
            self.run_bias = float(
                np.clip(1.0 + run_bias_sigma * self.rng.standard_normal(), 0.85, 1.15)
            )
        else:
            self.run_bias = 1.0

        self.t = 0.0
        self.memtable_bytes = 0.0
        self.dataset_bytes = 0.0
        # Size-tiered layout: individual table sizes; leveled layout: L0
        # table sizes plus per-level byte totals.
        self.st_tables: List[float] = []
        self.l0_tables: List[float] = []
        self.level_bytes: List[float] = [0.0]  # index 0 unused for leveled math
        self.backlog: Deque[_BacklogTask] = deque()
        self.cache_age = 0.0
        self.total_ops = 0.0
        self.total_flushes = 0
        self.total_compactions = 0
        self._terms: Optional[_RegimeTerms] = None

    def __getstate__(self):
        # Derived state stays out of pickles (pool workers, fingerprints)
        # and is rebuilt on the first solve after a load.
        state = self.__dict__.copy()
        del state["_terms"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._terms = None

    def _regime(self, read_ratio: Optional[float] = None) -> _RegimeTerms:
        """The term table, rebuilt when an object it derives from was
        replaced (``knobs`` by :meth:`reconfigure`; callers never write
        into any of the four) and re-weighted when the read ratio moved
        (``None``: any mix will do)."""
        t = self._terms
        if (
            t is None
            or t.knobs is not self.knobs
            or t.hardware is not self.hardware
            or t.costs is not self.costs
            or t.profile is not self.profile
        ):
            t = _RegimeTerms(self.knobs, self.hardware, self.costs, self.profile)
            self._terms = t
        if read_ratio is not None and read_ratio != t.read_ratio:
            t.set_mix(read_ratio)
        return t

    # ------------------------------------------------------------------ layout stats

    @property
    def is_leveled(self) -> bool:
        return self.knobs.compaction_method == LEVELED

    @property
    def sstable_count(self) -> int:
        if self.is_leveled:
            target = max(self.knobs.sstable_target_bytes, 1)
            leveled = sum(
                int(math.ceil(b / target)) for b in self.level_bytes[1:] if b > 0
            )
            return len(self.l0_tables) + leveled
        return len(self.st_tables)

    @property
    def tables_bloom_checked(self) -> float:
        """Expected tables consulted per read (bloom or range index)."""
        if self.is_leveled:
            checked = len(self.l0_tables)
            for level in self.level_bytes[1:]:
                if level > 0:
                    checked += 1
            return checked
        return float(len(self.st_tables))

    @property
    def compaction_backlog_bytes(self) -> float:
        return sum(task.remaining_io_bytes for task in self.backlog)

    def cache_hit_ratio(self) -> float:
        """Steady-state che-approximation hit ratio with a warm-up ramp.

        A cached page covers ``cache_coverage_ops_per_page`` operations
        of reuse distance; with exponentially distributed KRD of mean
        ``d`` ops, a re-access hits iff its distance falls inside the
        cache's coverage: ``1 - exp(-coverage / d)`` (paper §3.3: huge
        KRD is exactly why caching is of limited value for MG-RAST).
        """
        return self._cache_hit(self._regime())

    def _cache_hit(self, t: _RegimeTerms) -> float:
        """The formula; :func:`_node_seconds` inlines it and must change with it."""
        pages = t.cache_pages
        if pages <= 0:
            return 0.0
        working_set_pages = max(self.dataset_bytes / BLOCK_BYTES, 1.0)
        steady = 1.0 if working_set_pages <= pages else t.steady_hit
        ramp = 1.0 - math.exp(-self.cache_age / CACHE_WARMUP_SECONDS)
        return steady * ramp

    # ------------------------------------------------------------------ throughput

    def _segment(self, t: _RegimeTerms) -> _SegmentTerms:
        """The current segment's terms under the regime table ``t``.

        Revalidated from what the solve can observe — the tables a read
        checks, the backlog length, the flush flag (and, through
        :meth:`_regime`, the table's identity and mix) — not from an
        epoch counter, which direct assignment to the layout lists would
        bypass.
        """
        n_checked = self.tables_bloom_checked
        n_backlog = len(self.backlog)
        flushing = self.memtable_bytes > t.half_flush_trigger
        s = t.segment
        if (
            s is None
            or s.n_checked != n_checked
            or s.n_backlog != n_backlog
            or s.flushing is not flushing
        ):
            s = t.segment = _SegmentTerms(t, n_checked, n_backlog, flushing)
        return s

    def sustainable_throughput(self, read_ratio: float) -> float:
        """Solve the fluid bottleneck equation for ops/s at this instant.

        The equation of :mod:`repro.sim.costs`, split by what moves its
        terms: the regime (:class:`_RegimeTerms`), the structural
        segment (:class:`_SegmentTerms`) and — the cache ramp and what
        hangs on the hit ratio — the instant.  The property tests hold
        this bitwise equal to the equation evaluated in one piece.
        """
        if not (0.0 <= read_ratio <= 1.0):
            raise ValueError("read_ratio must be in [0, 1]")
        kernel = _node_seconds(self, read_ratio, 1.0)
        x = next(kernel)
        kernel.close()
        return x

    # ------------------------------------------------------------------ stepping

    def run(self, read_ratio: float, duration: float, dt: float = 1.0) -> List[float]:
        """Run ``duration`` seconds; the throughput (ops/s) of every step.

        The stepping loop, through one :func:`_node_seconds`: its steps
        fall into structural segments whose terms are derived once, and
        a step is the rest of the solve, the noise factor and the absorb.
        The end state (``sstable_count``, :meth:`cache_hit_ratio`, the
        backlog) is read off the model.
        """
        if not dt > 0:
            raise ValueError("dt must be positive")
        if not duration > 0:
            raise ValueError("duration must be positive")
        if not (0.0 <= read_ratio <= 1.0):
            raise ValueError("read_ratio must be in [0, 1]")
        steps = max(1, int(round(duration / dt)))
        # One block draw, after validation: the same stream as a draw per
        # step, and a rejected call has not moved it.
        sigma = self.noise_sigma
        draws = self.rng.standard_normal(steps).tolist() if sigma > 0 else None

        r, w = read_ratio, 1.0 - read_ratio
        kernel = _node_seconds(self, r, dt)
        capacity, absorb = kernel.__next__, kernel.send
        series: List[float] = []
        for k in range(steps):
            x = capacity()
            if draws is not None:
                factor = 1.0 + sigma * draws[k]
                x *= factor if factor > 0.2 else 0.2
            absorb((x * r * dt, x * w * dt))
            series.append(x)
        kernel.close()
        return series

    def load(self, n_keys: int) -> None:
        """Load phase: bulk-insert ``n_keys`` fresh rows (YCSB load)."""
        target_bytes = n_keys * self.profile.record_bytes
        while self.dataset_bytes < target_bytes:
            x = self.sustainable_throughput(read_ratio=0.0)
            dt = min(
                5.0,
                max(
                    0.5,
                    (target_bytes - self.dataset_bytes)
                    / max(x * self.profile.record_bytes, 1.0),
                ),
            )
            inserted = x * dt
            self._apply_writes(inserted, all_inserts=True)
            self._drain_background(dt)
            self.t += dt

    def reconfigure(self, knobs: EngineKnobs) -> None:
        """Apply new knobs online; a strategy switch restructures lazily."""
        old = self.knobs
        self.knobs = knobs
        if knobs.file_cache_bytes != old.file_cache_bytes:
            # Shrinks lose warmth proportionally; growth re-warms.
            self.cache_age = min(self.cache_age, CACHE_WARMUP_SECONDS / 2)
        if knobs.compaction_method != old.compaction_method:
            self._switch_strategy()

    def settle(self, max_seconds: float = 600.0, dt: float = 1.0) -> None:
        """Drain flush/compaction backlog (between benchmark phases)."""
        elapsed = 0.0
        while self.backlog and elapsed < max_seconds:
            self._drain_background(dt)
            self.t += dt
            elapsed += dt

    # ------------------------------------------------------------------ write effects

    def _apply_writes(self, n_writes: float, all_inserts: bool = False) -> None:
        if n_writes <= 0:
            return
        insert_fraction = 1.0 if all_inserts else (1.0 - self.profile.update_fraction)
        self.dataset_bytes += n_writes * insert_fraction * self.profile.record_bytes
        self.memtable_bytes += n_writes * self.profile.record_bytes
        trigger = self.knobs.flush_trigger_bytes
        while self.memtable_bytes >= trigger:
            self._flush(trigger)
            self.memtable_bytes -= trigger

    def _flush(self, flush_bytes: float) -> None:
        self.total_flushes += 1
        if self.is_leveled:
            self.l0_tables.append(flush_bytes)
            self._maybe_trigger_leveled()
        else:
            self.st_tables.append(flush_bytes)
            self._maybe_trigger_size_tiered()

    # ------------------------------------------------------------------ compaction triggers

    def _busy_st_tables(self) -> set:
        busy = set()
        for task in self.backlog:
            if task.kind == "st_merge":
                busy.update(task.payload[0])
        return busy

    def _maybe_trigger_size_tiered(self) -> None:
        busy = self._busy_st_tables()
        idle = [i for i in range(len(self.st_tables)) if i not in busy]
        # Bucket by similar size, as SizeTieredStrategy does.
        for bucket in size_buckets([self.st_tables[i] for i in idle]):
            if len(bucket) >= SIZE_TIERED_MIN_THRESHOLD:
                indices = tuple(idle[p] for p in bucket)
                total = sum(self.st_tables[i] for i in indices)
                self.backlog.append(
                    _BacklogTask(
                        remaining_io_bytes=self.costs.compaction_io_factor * total,
                        kind="st_merge",
                        payload=(indices, total),
                    )
                )

    def _busy_l0(self) -> bool:
        return any(task.kind == "l0_to_l1" for task in self.backlog)

    def _maybe_trigger_leveled(self) -> None:
        if len(self.l0_tables) >= L0_COMPACTION_TRIGGER and not self._busy_l0():
            l0_bytes = sum(self.l0_tables)
            self._ensure_level(1)
            # Flushes span the whole keyspace, so the merge rewrites L1.
            io = self.costs.compaction_io_factor * (l0_bytes + self.level_bytes[1])
            self.backlog.append(
                _BacklogTask(
                    remaining_io_bytes=io,
                    kind="l0_to_l1",
                    payload=(len(self.l0_tables), l0_bytes),
                )
            )
        self._maybe_trigger_spills()

    def _level_capacity(self, level: int) -> float:
        return float(self.knobs.sstable_target_bytes * LEVEL_FANOUT**level)

    def _maybe_trigger_spills(self) -> None:
        spilling = {task.payload[0] for task in self.backlog if task.kind == "spill"}
        for li in range(1, len(self.level_bytes)):
            if li in spilling:
                continue
            if self.level_bytes[li] <= self._level_capacity(li):
                continue
            victim = float(self.knobs.sstable_target_bytes)
            self._ensure_level(li + 1)
            # A victim table overlaps ~fanout tables in the next level.
            overlap = min(
                self.level_bytes[li + 1], float(LEVEL_FANOUT * victim)
            )
            io = self.costs.compaction_io_factor * (victim + overlap)
            self.backlog.append(
                _BacklogTask(remaining_io_bytes=io, kind="spill", payload=(li, victim))
            )

    def _ensure_level(self, level: int) -> None:
        while len(self.level_bytes) <= level:
            self.level_bytes.append(0.0)

    def _switch_strategy(self) -> None:
        """Carry the current data over to the other layout shape.

        Switching to leveled drops existing runs into L0-equivalents that
        subsequent compactions absorb; switching to size-tiered flattens
        the levels into individual tables.
        """
        self.backlog.clear()
        if self.is_leveled:
            total = sum(self.st_tables)
            self.st_tables.clear()
            if total > 0:
                self._ensure_level(1)
                # Seed L1.. with the existing data mass.
                remaining = total
                li = 1
                while remaining > 0:
                    self._ensure_level(li)
                    cap = self._level_capacity(li)
                    take = min(remaining, cap)
                    self.level_bytes[li] += take
                    remaining -= take
                    li += 1
            self._maybe_trigger_leveled()
        else:
            target = max(self.knobs.sstable_target_bytes, 1)
            for b in self.level_bytes[1:]:
                while b > 0:
                    take = min(b, float(target) * LEVEL_FANOUT)
                    self.st_tables.append(take)
                    b -= take
            self.level_bytes = [0.0]
            self.st_tables.extend(self.l0_tables)
            self.l0_tables.clear()
            self._maybe_trigger_size_tiered()

    # ------------------------------------------------------------------ background

    def _drain_background(self, dt: float) -> None:
        rate = compaction_rate(self.knobs, len(self.backlog))
        if rate <= 0.0:
            return
        # The queue holds io-bytes (read+write); drain at io-rate.
        budget = rate * self.costs.compaction_io_factor * dt
        while budget > 0 and self.backlog:
            task = self.backlog[0]
            used = min(budget, task.remaining_io_bytes)
            task.remaining_io_bytes -= used
            budget -= used
            if task.remaining_io_bytes <= 0:
                self.backlog.popleft()
                self._complete(task)

    def _complete(self, task: _BacklogTask) -> None:
        self.total_compactions += 1
        if task.kind == "st_merge":
            indices, total = task.payload
            merged = set(indices)
            keep = [s for i, s in enumerate(self.st_tables) if i not in merged]
            self.st_tables = keep + [total]
            self._maybe_trigger_size_tiered()
        elif task.kind == "l0_to_l1":
            count, l0_bytes = task.payload
            del self.l0_tables[:count]
            self._ensure_level(1)
            self.level_bytes[1] += l0_bytes
            self._maybe_trigger_spills()
        elif task.kind == "spill":
            li, victim = task.payload
            self._ensure_level(li + 1)
            moved = min(victim, self.level_bytes[li])
            self.level_bytes[li] -= moved
            self.level_bytes[li + 1] += moved
            self._maybe_trigger_spills()

    def __repr__(self) -> str:
        return (
            f"AnalyticLSMModel({self.knobs.compaction_method}, "
            f"tables={self.sstable_count}, t={self.t:.1f}s)"
        )

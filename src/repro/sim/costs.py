"""Shared operation-cost model.

Both execution paths — the materialized per-operation engine and the
batched analytic model — price work through the formulas here, so they
agree by construction on *why* a configuration is fast or slow:

* writes pay CQL/memtable CPU plus commit-log sequential bytes, and are
  capped by worker-thread concurrency and flush-writer bandwidth;
* reads pay base CPU, a bloom-filter check per searched table, an
  index/merge cost per probed candidate, and a random block fetch for
  every file-cache miss;
* worker pools past the core count pay a contention factor.

What flushes and compactions take from the foreground is priced once,
from these constants, in :mod:`repro.lsm.background`.  The functions
here are the definition.  The analytic model's per-second solve writes
the hit-ratio half of the read path out inline (no calls, clamps as
conditionals); ``tests/test_lsm_analytic_properties.py`` holds it
bitwise equal to the same equation evaluated through them.

The constants are calibrated (see ``benchmarks/`` and EXPERIMENTS.md) so
the Dell R430 spec lands in the paper's 40k–110k ops/s range with the
Table 1 default/min/max ordering; absolute numbers are not the goal —
response *shape* is.
"""

from __future__ import annotations

from dataclasses import dataclass

US = 1e-6  # one microsecond in seconds


@dataclass(frozen=True)
class CostConstants:
    """Per-operation cost calibration (single 3.0 GHz core, seconds)."""

    # -- write path ------------------------------------------------------------
    cpu_write: float = 70.0 * US        # parse + commitlog append + memtable insert
    write_thread_hold: float = 240.0 * US  # wall time a write worker is occupied
    commitlog_overhead_bytes: float = 28.0  # framing per commit-log entry
    flush_writer_bandwidth: float = 52.0 * 1024 * 1024  # bytes/s per flush writer

    # -- read path -------------------------------------------------------------
    cpu_read_base: float = 75.0 * US    # parse + coordinator + memtable lookup
    cpu_bloom_check: float = 1.5 * US   # one bloom membership test
    cpu_probe: float = 10.0 * US        # index lookup + row merge per candidate
    cpu_cache_hit: float = 5.0 * US     # copy a block out of the file cache
    read_thread_hold: float = 210.0 * US  # wall time a read worker is occupied

    # -- compaction --------------------------------------------------------------
    compaction_cpu_per_byte: float = 5.0e-9  # merge CPU per input byte
    # compaction reads inputs and writes outputs: 2x bytes of seq traffic
    compaction_io_factor: float = 2.0

    # -- caching ---------------------------------------------------------------
    # One cached 64k block effectively covers this many *operations* of
    # key-reuse distance: blocks hold ~256 records but random access over
    # a sorted table realizes only partial spatial locality.
    cache_coverage_ops_per_page: float = 4.0
    # Leveled compaction "groups data by rows" where size-tiered's
    # "merge-by-size process does not" (paper §2.2.2): clustered rows
    # make each cached block cover more of the reuse stream.
    leveled_cache_locality: float = 3.0

    # -- contention ----------------------------------------------------------------
    # Lock and scheduler contention grows smoothly (quadratically) with
    # the oversubscription ratio threads / (4 x cores); produces the
    # CW=64 droop in Figure 6 without a kinked response surface.
    contention_quadratic: float = 0.04
    oversubscription_factor: float = 4.0


DEFAULT_COSTS = CostConstants()


def thread_contention(
    threads: float, cores: float, costs: CostConstants = DEFAULT_COSTS
) -> float:
    """Smooth CPU-cost inflation factor for a pool of ``threads``."""
    ratio = threads / max(costs.oversubscription_factor * cores, 1.0)
    return 1.0 + costs.contention_quadratic * ratio * ratio


def read_cpu_seconds(
    tables_bloom_checked: float,
    candidates_probed: float,
    cache_hits: float,
    costs: CostConstants = DEFAULT_COSTS,
) -> float:
    """CPU seconds of one read: base + blooms + probes + cache copies.
    ``LSMEngine._execute`` writes this sum inline, per op, and must
    change with it."""
    return (
        costs.cpu_read_base
        + tables_bloom_checked * costs.cpu_bloom_check
        + candidates_probed * costs.cpu_probe
        + cache_hits * costs.cpu_cache_hit
    )


def write_cpu_seconds(costs: CostConstants = DEFAULT_COSTS) -> float:
    """CPU seconds of one write (whole-row upsert)."""
    return costs.cpu_write


def commitlog_bytes_per_write(
    record_bytes: float, costs: CostConstants = DEFAULT_COSTS
) -> float:
    return record_bytes + costs.commitlog_overhead_bytes


def expected_version_spread(
    table_count: float, update_fraction: float
) -> float:
    """Expected number of tables truly holding versions of a read key.

    With whole-row upserts a key usually lives in one table, but updates
    scatter newer versions into younger tables before compaction gathers
    them: the spread grows with the update share of writes and saturates
    with the table count (paper §2.2.2: size-tiered "makes it more likely
    that versions of a particular row may be spread over many SSTables").
    """
    if table_count <= 1:
        return max(table_count, 0.0) if table_count < 1 else 1.0
    spread = 1.0 + min(3.0, (table_count - 1) / 3.0) * min(max(update_fraction, 0.0), 1.0)
    return min(spread, table_count)


def expected_disk_probes_per_read(
    version_spread: float,
    tables_bloom_checked: float,
    fp_chance: float,
    cache_hit_ratio: float,
) -> float:
    """Expected random block fetches per read.

    Cassandra must merge row fragments, so the read probes every
    bloom-positive table: all true version holders plus false positives
    among the rest; every probe misses the cache with probability
    ``1 - hit``.
    """
    fp_tables = fp_chance * max(tables_bloom_checked - version_spread, 0.0)
    touched = max(version_spread, 1.0) + fp_tables
    return touched * (1.0 - min(max(cache_hit_ratio, 0.0), 1.0))

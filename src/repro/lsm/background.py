"""Background load: what flushes and compactions take from the foreground.

The paper's substrate rests on one mechanism (§2.2.2): memtable flushes
and compactions run in the background and steal sequential disk
bandwidth and CPU from foreground queries.  This module is its one
definition, shared by both substrates — the materialized engine tables
:class:`BackgroundTerms` per background regime, the analytic model
builds one per structural segment — so the two agree by construction on
what a queued compaction or a busy flush writer costs.
"""

from __future__ import annotations

from repro.config.cassandra import LEVELED
from repro.lsm.knobs import EngineKnobs
from repro.sim.costs import CostConstants, thread_contention
from repro.sim.hardware import HardwareSpec

#: Streaming capacity of one compactor process (bounded by merge CPU and
#: per-stream disk efficiency).
COMPACTOR_STREAM_BYTES = 45 * 1024 * 1024
#: Leveled compaction must keep up with flushes — it fires on every
#: flush and escalates past the user throttle when L0 backs up (paper
#: §2.2.2: it "requires more processing and disk I/O operations").
LEVELED_MIN_COMPACTION_BYTES = 64 * 1024 * 1024


def compaction_rate(knobs: EngineKnobs, queued: int) -> float:
    """Input bytes/s compaction processes with ``queued`` tasks waiting."""
    if not queued:
        return 0.0
    active = min(queued, knobs.concurrent_compactors)
    stream_cap = active * COMPACTOR_STREAM_BYTES
    # The throughput knob throttles each compactor process; running
    # more compactors in parallel raises total drain rate ("simultaneous
    # compactions help preserve read performance ... by limiting the
    # number of small SSTables that accumulate", paper §3.4.1).
    throttle = knobs.compaction_throughput_bytes * active
    if knobs.compaction_method == LEVELED:
        throttle = max(throttle, LEVELED_MIN_COMPACTION_BYTES)
    return min(throttle, stream_cap)


class BackgroundTerms:
    """What the foreground has left under one background load.

    ``queued`` compaction tasks drain at :func:`compaction_rate` and
    flush writers stream ``flush_rate`` bytes/s; their merge CPU and
    sequential traffic, as utilizations clamped so a saturated
    background still leaves a share (CPU 0.6, disk 0.9), leave
    ``cores`` (never under half a core, and scaled from the 3.0 GHz
    the cost constants are calibrated at), the two worker pools'
    ``read_contention`` / ``write_contention`` at that core count,
    ``seq_bandwidth`` and ``rand_iops``.
    """

    __slots__ = (
        "compaction_rate", "cores", "read_contention", "write_contention",
        "seq_bandwidth", "rand_iops",
    )

    def __init__(
        self,
        knobs: EngineKnobs,
        hardware: HardwareSpec,
        costs: CostConstants,
        queued: int,
        flush_rate: float,
    ):
        rate = self.compaction_rate = compaction_rate(knobs, queued)
        seq_demand = rate * costs.compaction_io_factor + flush_rate
        bg_seq = min(seq_demand / hardware.disk_seq_bandwidth, 0.9)
        bg_cpu = min(rate * costs.compaction_cpu_per_byte / hardware.cpu_cores, 0.6)
        cores = self.cores = max(
            hardware.cpu_cores * (1.0 - bg_cpu) * (hardware.cpu_ghz / 3.0), 0.5
        )
        self.read_contention = thread_contention(knobs.concurrent_reads, cores, costs)
        self.write_contention = thread_contention(knobs.concurrent_writes, cores, costs)
        self.seq_bandwidth = hardware.disk_seq_bandwidth * (1.0 - bg_seq)
        self.rand_iops = hardware.disk_rand_iops * hardware.disk_count

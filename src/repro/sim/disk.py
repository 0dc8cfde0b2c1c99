"""Disk I/O accounting.

Magnetic disks (the paper's testbed) have two distinct budgets: sequential
bandwidth (commit-log appends, memtable flushes, compaction streams) and
random IOPS (point reads into SSTables on a file-cache miss).  What the
foreground has left of each under background load is priced by
:class:`repro.lsm.background.BackgroundTerms`; this module books the
volume that flowed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.hardware import HardwareSpec


@dataclass
class DiskStats:
    """Cumulative I/O accounting (bytes and operations, simulated)."""

    seq_bytes_written: float = 0.0
    seq_bytes_read: float = 0.0
    random_reads: int = 0
    compaction_bytes: float = 0.0


class DiskModel:
    """One server's disk: its hardware and the I/O booked against it."""

    def __init__(self, hardware: HardwareSpec):
        self.hardware = hardware
        self.stats = DiskStats()

    def account_compaction_bytes(self, nbytes: float) -> None:
        """Record compaction I/O volume (already paid via utilization)."""
        self.stats.compaction_bytes += nbytes

    def __repr__(self) -> str:
        return f"DiskModel({self.hardware.name})"

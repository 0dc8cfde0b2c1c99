"""Hardware specifications for simulated servers.

The paper's testbed is a Dell PowerEdge R430 (2× Xeon E5-2623 v3, 4 cores
each at 3.0 GHz, 32 GB RAM, 2× 1 TB mirrored magnetic disks at 6 Gbps)
driven by an Opteron 4386 client over a 1 Gbps switch.  We encode those
machines here; all cost models take a :class:`HardwareSpec` so experiments
can also explore other architectures (the paper notes Rafiki retrains per
architecture).
"""

from __future__ import annotations

from dataclasses import dataclass

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True)
class HardwareSpec:
    """Static description of a simulated server.

    Attributes
    ----------
    name:
        Human-readable label used in reports.
    cpu_cores:
        Number of physical cores available to the datastore process.
    cpu_ghz:
        Clock speed; scales per-operation CPU costs.
    ram_bytes:
        Total memory; bounds heap, memtable space, and file cache.
    disk_seq_bandwidth:
        Sequential read/write bandwidth in bytes/second (commit log,
        flushes, compaction are sequential).
    disk_rand_iops:
        Effective random block fetches per second *through the OS page
        cache*.  On the paper's testbed the benchmark working set is
        partially memory-resident, so a file-cache miss is usually served
        by the page cache and only sometimes by a physical seek; this
        budget models that blend (a raw 7.2k-RPM disk would do ~220).
    disk_count:
        Number of independent spindles (mirrored pairs count once for
        writes); bounds useful compaction concurrency.
    net_bandwidth:
        Client-server link bandwidth in bytes/second.
    """

    name: str
    cpu_cores: int
    cpu_ghz: float
    ram_bytes: int
    disk_seq_bandwidth: float
    disk_rand_iops: float
    disk_count: int
    net_bandwidth: float

    def __post_init__(self):
        if self.cpu_cores <= 0:
            raise ValueError("cpu_cores must be positive")
        if self.ram_bytes <= 0:
            raise ValueError("ram_bytes must be positive")
        if self.disk_seq_bandwidth <= 0 or self.disk_rand_iops <= 0:
            raise ValueError("disk characteristics must be positive")
        if self.disk_count <= 0:
            raise ValueError("disk_count must be positive")

    @property
    def heap_bytes(self) -> int:
        """JVM-style heap: 1/4 of RAM, the Cassandra default policy."""
        return self.ram_bytes // 4


#: The paper's server: Dell PowerEdge R430.
DEFAULT_SERVER = HardwareSpec(
    name="dell-r430",
    cpu_cores=8,
    cpu_ghz=3.0,
    ram_bytes=32 * GB,
    disk_seq_bandwidth=180 * MB,  # magnetic disk sequential
    disk_rand_iops=30_000.0,      # page-cache-blended random block fetches
    disk_count=2,
    net_bandwidth=125 * MB,       # 1 Gbps
)

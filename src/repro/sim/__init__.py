"""Simulated-time hardware substrate.

The paper benchmarks real servers; this package provides the deterministic,
seedable stand-in: a simulated clock, hardware specs, per-operation cost
formulas with thread contention, disk I/O accounting and an LRU file
cache.  The per-operation and batched execution paths of the LSM engine
price work through the same formulas, so they agree by construction.
"""

from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel
from repro.sim.cache import LruFileCache
from repro.sim.hardware import HardwareSpec, DEFAULT_SERVER
from repro.sim.rng import SeedSequence, derive_rng

__all__ = [
    "SimClock",
    "DiskModel",
    "LruFileCache",
    "HardwareSpec",
    "DEFAULT_SERVER",
    "SeedSequence",
    "derive_rng",
]

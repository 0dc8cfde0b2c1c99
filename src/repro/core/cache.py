"""Bounded recommendation cache for the online tuner.

:class:`~repro.core.rafiki.Rafiki` caches search results on a quantized
read-ratio grid: when the workload oscillates between regimes
(Figure 3), revisiting a regime costs a dict lookup instead of a GA
search — part of how Rafiki reacts within seconds.  The seed repo used a
bare unbounded dict; this class adds LRU eviction with a capacity
bound (a production tuner runs for months, and per-tenant instances
multiply) and hit/miss/eviction statistics for observability.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from math import isfinite
from typing import Optional

from repro.core.search import OptimizationResult
from repro.errors import SearchError


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class RecommendationCache:
    """LRU cache of :class:`OptimizationResult` keyed by quantized RR."""

    def __init__(self, resolution: float = 0.05, capacity: int = 128):
        if not isfinite(resolution) or resolution <= 0.0:
            raise SearchError(
                f"rr_cache_resolution must be a positive number, got {resolution!r}"
            )
        if capacity < 1:
            raise SearchError(f"cache capacity must be >= 1, got {capacity!r}")
        self.resolution = float(resolution)
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._entries: "OrderedDict[float, OptimizationResult]" = OrderedDict()

    def quantize(self, read_ratio: float) -> float:
        """Snap a read ratio onto the cache grid.

        The key is clamped into [0, 1] so the boundary workloads
        (``read_ratio=0.0`` and ``1.0``) always land on valid grid keys
        even for resolutions that do not divide 1 evenly.
        """
        if not (0.0 <= read_ratio <= 1.0):
            raise SearchError("read_ratio must be in [0, 1]")
        key = round(read_ratio / self.resolution) * self.resolution
        return round(min(1.0, max(0.0, key)), 6)

    def get(self, key: float) -> Optional[OptimizationResult]:
        """Look up a quantized key, refreshing its recency on a hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: float, result: OptimizationResult) -> None:
        """Insert/overwrite an entry, evicting the least recently used
        entry when over capacity."""
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: float) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"RecommendationCache({len(self)}/{self.capacity} entries, "
            f"{self.stats.hits} hits, {self.stats.misses} misses, "
            f"{self.stats.evictions} evictions)"
        )

"""LRU file cache model.

Models Cassandra's ``file_cache_size_in_mb`` buffer: a capacity-bounded
LRU of fixed-size pages holding SSTable blocks read from disk.  The LSM
engine consults it on every SSTable access; hits cost CPU only, misses
cost a random disk read.

The analytic model computes its own steady-state hit ratio from the
key-reuse distance (:mod:`repro.lsm.analytic`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Sequence


class LruFileCache:
    """Bounded LRU over (table_id, block) keys with hit/miss accounting."""

    def __init__(self, capacity_bytes: int, page_bytes: int = 64 * 1024):
        if page_bytes <= 0:
            raise ValueError("page size must be positive")
        if capacity_bytes < 0:
            raise ValueError("capacity cannot be negative")
        self.capacity_bytes = int(capacity_bytes)
        self.page_bytes = int(page_bytes)
        self._capacity_pages = self.capacity_bytes // self.page_bytes
        self._pages: OrderedDict[Hashable, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._pages)

    def resize(self, capacity_bytes: int) -> None:
        """Change capacity (an online reconfiguration); evicts LRU pages."""
        if capacity_bytes < 0:
            raise ValueError("capacity cannot be negative")
        self.capacity_bytes = int(capacity_bytes)
        self._capacity_pages = self.capacity_bytes // self.page_bytes
        while len(self._pages) > self._capacity_pages:
            self._pages.popitem(last=False)

    def access(self, page_key: Hashable) -> bool:
        """Touch a page; return True on hit, False on miss (page loaded)."""
        return self.replay((page_key,)) == 1

    def replay(self, pages: Sequence[Hashable]) -> int:
        """Touch ``pages`` in order; return how many were hits.  A hit
        becomes the most recent page; a miss loads its page, evicting
        the least recent past capacity."""
        lru, capacity = self._pages, self._capacity_pages
        hits = 0
        for page in pages:
            if page in lru:
                lru.move_to_end(page)
                hits += 1
            else:
                lru[page] = None
                if len(lru) > capacity:
                    lru.popitem(False)
        self.hits += hits
        self.misses += len(pages) - hits
        return hits

    def invalidate_prefix(self, table_id: Hashable) -> int:
        """Drop all pages of a compacted-away SSTable; returns count."""
        stale = [k for k in self._pages if isinstance(k, tuple) and k[0] == table_id]
        for k in stale:
            del self._pages[k]
        return len(stale)

    def clear(self) -> None:
        self._pages.clear()

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"LruFileCache(cap={self.capacity_bytes / (1024 * 1024):.0f}MB, "
            f"pages={len(self._pages)}/{self._capacity_pages}, hit={self.hit_ratio:.2%})"
        )

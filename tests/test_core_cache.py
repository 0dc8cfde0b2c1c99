"""RecommendationCache: quantization guards, LRU bounds, stats."""

import pytest

from repro.core.cache import RecommendationCache
from repro.core.search import OptimizationResult
from repro.errors import SearchError


def result(tag):
    return OptimizationResult(
        configuration=None,
        predicted_throughput=float(tag),
        evaluations=1,
        equivalent_wall_seconds=0.0,
        strategy="test",
    )


class TestQuantize:
    def test_snaps_to_grid(self):
        cache = RecommendationCache(resolution=0.05)
        assert cache.quantize(0.81) == pytest.approx(0.80)
        assert cache.quantize(0.83) == pytest.approx(0.85)

    def test_boundaries_land_on_valid_keys(self):
        for resolution in (0.05, 0.03, 0.3, 0.7, 1.5):
            cache = RecommendationCache(resolution=resolution)
            assert 0.0 <= cache.quantize(0.0) <= 1.0
            assert 0.0 <= cache.quantize(1.0) <= 1.0
            # The same boundary always maps to the same key.
            assert cache.quantize(1.0) == cache.quantize(1.0)
        assert RecommendationCache(resolution=0.05).quantize(1.0) == 1.0
        assert RecommendationCache(resolution=0.05).quantize(0.0) == 0.0

    def test_key_never_exceeds_unit_interval(self):
        # 0.3 grid: round(0.98/0.3)=3 -> 0.9 (in range); round(0.5/0.3)=2 -> 0.6
        cache = RecommendationCache(resolution=0.3)
        for rr in (0.0, 0.2, 0.5, 0.98, 1.0):
            assert 0.0 <= cache.quantize(rr) <= 1.0

    def test_out_of_range_rr_rejected(self):
        cache = RecommendationCache()
        with pytest.raises(SearchError):
            cache.quantize(1.2)
        with pytest.raises(SearchError):
            cache.quantize(-0.1)

    def test_invalid_resolution_rejected(self):
        for bad in (0.0, -0.05, float("nan"), float("inf")):
            with pytest.raises(SearchError, match="rr_cache_resolution"):
                RecommendationCache(resolution=bad)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(SearchError):
            RecommendationCache(capacity=0)


class TestLRU:
    def test_capacity_bound_evicts_oldest(self):
        cache = RecommendationCache(resolution=0.05, capacity=2)
        cache.put(0.1, result(1))
        cache.put(0.2, result(2))
        cache.put(0.3, result(3))
        assert len(cache) == 2
        assert 0.1 not in cache
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = RecommendationCache(capacity=2)
        cache.put(0.1, result(1))
        cache.put(0.2, result(2))
        cache.get(0.1)               # 0.1 becomes most recent
        cache.put(0.3, result(3))    # evicts 0.2, not 0.1
        assert 0.1 in cache
        assert 0.2 not in cache

    def test_overwrite_does_not_grow(self):
        cache = RecommendationCache(capacity=2)
        cache.put(0.1, result(1))
        cache.put(0.1, result(2))
        assert len(cache) == 1
        assert cache.get(0.1).predicted_throughput == 2.0

    def test_stats_track_hits_and_misses(self):
        cache = RecommendationCache()
        assert cache.get(0.5) is None
        cache.put(0.5, result(1))
        assert cache.get(0.5) is not None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_clear(self):
        cache = RecommendationCache()
        cache.put(0.5, result(1))
        cache.clear()
        assert len(cache) == 0

    def test_repr_mentions_stats(self):
        cache = RecommendationCache(capacity=4)
        cache.put(0.5, result(1))
        cache.get(0.5)
        text = repr(cache)
        assert "1/4" in text and "1 hits" in text

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import LruFileCache

PAGE = 1024


def make_cache(pages: int) -> LruFileCache:
    return LruFileCache(capacity_bytes=pages * PAGE, page_bytes=PAGE)


class TestLruFileCache:
    def test_miss_then_hit(self):
        cache = make_cache(4)
        assert cache.access("a") is False
        assert cache.access("a") is True

    def test_capacity_evicts_lru(self):
        cache = make_cache(2)
        cache.access("a")
        cache.access("b")
        cache.access("c")  # evicts a
        assert cache.access("a") is False
        assert cache.access("c") is True

    def test_access_refreshes_recency(self):
        cache = make_cache(2)
        cache.access("a")
        cache.access("b")
        cache.access("a")  # a now most recent
        cache.access("c")  # evicts b
        assert cache.access("a") is True
        assert cache.access("b") is False

    def test_zero_capacity_never_hits(self):
        cache = make_cache(0)
        cache.access("a")
        assert cache.access("a") is False
        assert cache.hit_ratio == 0.0

    def test_hit_ratio(self):
        cache = make_cache(4)
        cache.access("a")
        cache.access("a")
        cache.access("a")
        assert cache.hit_ratio == pytest.approx(2 / 3)

    def test_resize_shrink_evicts(self):
        cache = make_cache(4)
        for k in "abcd":
            cache.access(k)
        cache.resize(2 * PAGE)
        assert len(cache) == 2
        assert cache.access("d") is True  # most recent survives

    def test_resize_rejects_negative(self):
        with pytest.raises(ValueError):
            make_cache(2).resize(-1)

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            LruFileCache(1024, page_bytes=0)

    def test_invalidate_prefix(self):
        cache = make_cache(8)
        cache.access((1, 0))
        cache.access((1, 1))
        cache.access((2, 0))
        assert cache.invalidate_prefix(1) == 2
        assert cache.access((2, 0)) is True
        assert cache.access((1, 0)) is False

    def test_clear(self):
        cache = make_cache(4)
        cache.access("a")
        cache.clear()
        assert len(cache) == 0

    def test_never_exceeds_capacity(self):
        cache = make_cache(3)
        for i in range(100):
            cache.access(i)
            assert len(cache) <= 3

    @given(data=st.lists(st.integers(min_value=0, max_value=20), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_lru_matches_reference_model(self, data):
        """Exact-LRU property: compare against an ordered-list model."""
        cache = make_cache(4)
        model = []
        for key in data:
            hit = cache.access(key)
            assert hit == (key in model)
            if key in model:
                model.remove(key)
            model.append(key)
            if len(model) > 4:
                model.pop(0)

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lsm.bloom import BloomFilter, hash_key


class TestBloomFilter:
    def test_no_false_negatives(self):
        keys = [f"key{i}" for i in range(500)]
        bf = BloomFilter.from_keys(keys, fp_chance=0.01)
        assert all(k in bf for k in keys)

    def test_false_positive_rate_close_to_target(self):
        keys = [f"key{i}" for i in range(2000)]
        bf = BloomFilter.from_keys(keys, fp_chance=0.01)
        probes = [f"other{i}" for i in range(5000)]
        fp = sum(1 for p in probes if p in bf) / len(probes)
        assert fp < 0.03  # target 0.01, allow slack

    def test_higher_fp_chance_smaller_filter(self):
        keys = [f"key{i}" for i in range(1000)]
        tight = BloomFilter.from_keys(keys, fp_chance=0.001)
        loose = BloomFilter.from_keys(keys, fp_chance=0.1)
        assert loose.size_bytes < tight.size_bytes

    def test_empty_filter_rejects_everything(self):
        bf = BloomFilter(expected_items=10, fp_chance=0.01)
        assert "anything" not in bf

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=0, fp_chance=0.01)
        with pytest.raises(ValueError):
            BloomFilter(expected_items=10, fp_chance=0.0)
        with pytest.raises(ValueError):
            BloomFilter(expected_items=10, fp_chance=1.0)

    @given(st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=100))
    @example(["\x00"])
    @example(["a", "a\x00"])
    @settings(max_examples=50, deadline=None)
    def test_membership_property(self, keys):
        """Property: a bloom filter never lies about absence."""
        bf = BloomFilter.from_keys(keys, fp_chance=0.05)
        assert all(bf.might_contain(k) for k in keys)

    @given(
        members=st.lists(st.text(max_size=20), min_size=1, max_size=60),
        probes=st.lists(st.text(max_size=20), max_size=60),
        fp_chance=st.sampled_from([0.001, 0.05, 0.5]),
    )
    @settings(max_examples=50, deadline=None)
    def test_hashed_probe_equals_keyed_probe(self, members, probes, fp_chance):
        """One hash per key, then any number of filters: the same answer
        as hashing inside each filter, for any string (empty, non-ASCII)."""
        bf = BloomFilter.from_keys(members, fp_chance=fp_chance)
        for k in members + probes + ["", "clé", "鍵"]:
            assert bf.might_contain_hashed(*hash_key(k)) == bf.might_contain(k)

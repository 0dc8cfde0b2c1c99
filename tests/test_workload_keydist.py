import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.keydist import ExponentialReuseKeyDistribution


class TestExponentialReuse:
    def test_keys_in_range(self, rng):
        dist = ExponentialReuseKeyDistribution(100, mean_reuse_distance=10)
        assert all(0 <= dist.next_key(rng) < 100 for _ in range(500))

    def test_small_krd_reuses_heavily(self, rng):
        dist = ExponentialReuseKeyDistribution(
            1_000_000, mean_reuse_distance=5, reuse_probability=1.0
        )
        keys = [dist.next_key(rng) for _ in range(2000)]
        assert len(set(keys)) < len(keys) * 0.5

    def test_huge_krd_rarely_reuses(self, rng):
        """The MG-RAST regime: reuse distance beyond any window."""
        dist = ExponentialReuseKeyDistribution(
            10**9, mean_reuse_distance=1e9, history_limit=1000
        )
        keys = [dist.next_key(rng) for _ in range(2000)]
        assert len(set(keys)) > len(keys) * 0.95

    def test_observed_distance_tracks_mean(self, rng):
        # Moderate reuse probability: cold draws keep fresh keys flowing
        # so reuse does not collapse onto a handful of hot keys.
        mean = 100.0
        dist = ExponentialReuseKeyDistribution(
            10**6, mean_reuse_distance=mean, reuse_probability=0.4
        )
        last_seen = {}
        distances = []
        for i in range(30_000):
            k = dist.next_key(rng)
            if k in last_seen:
                distances.append(i - last_seen[k] - 1)
            last_seen[k] = i
        observed = np.mean(distances)
        assert 0.2 * mean < observed < 2.5 * mean

    def test_invalid_keyspace(self):
        with pytest.raises(WorkloadError):
            ExponentialReuseKeyDistribution(0, mean_reuse_distance=5)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ExponentialReuseKeyDistribution(10, mean_reuse_distance=0)
        with pytest.raises(WorkloadError):
            ExponentialReuseKeyDistribution(10, 5.0, reuse_probability=1.5)

    def test_key_name_sortable(self):
        dist = ExponentialReuseKeyDistribution(10, mean_reuse_distance=5)
        assert dist.key_name(2) < dist.key_name(10)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_always_valid_keys(self, seed):
        rng = np.random.default_rng(seed)
        dist = ExponentialReuseKeyDistribution(50, mean_reuse_distance=7)
        assert all(0 <= dist.next_key(rng) < 50 for _ in range(100))

import pytest

from repro.sim.costs import (
    DEFAULT_COSTS,
    commitlog_bytes_per_write,
    expected_disk_probes_per_read,
    expected_version_spread,
    read_cpu_seconds,
    thread_contention,
    write_cpu_seconds,
)


class TestReadCpuSeconds:
    def test_base_only(self):
        assert read_cpu_seconds(0, 0, 0) == pytest.approx(DEFAULT_COSTS.cpu_read_base)

    def test_blooms_add_cost(self):
        assert read_cpu_seconds(10, 0, 0) > read_cpu_seconds(1, 0, 0)

    def test_probes_cost_more_than_blooms(self):
        per_bloom = read_cpu_seconds(1, 0, 0) - read_cpu_seconds(0, 0, 0)
        per_probe = read_cpu_seconds(0, 1, 0) - read_cpu_seconds(0, 0, 0)
        assert per_probe > per_bloom

    def test_linear_composition(self):
        c = DEFAULT_COSTS
        expected = (
            c.cpu_read_base + 3 * c.cpu_bloom_check + 2 * c.cpu_probe + 1 * c.cpu_cache_hit
        )
        assert read_cpu_seconds(3, 2, 1) == pytest.approx(expected)


class TestWriteCosts:
    def test_write_cpu_positive(self):
        assert write_cpu_seconds() > 0

    def test_commitlog_bytes_include_overhead(self):
        assert commitlog_bytes_per_write(100) == pytest.approx(
            100 + DEFAULT_COSTS.commitlog_overhead_bytes
        )


class TestVersionSpread:
    def test_single_table(self):
        assert expected_version_spread(1, 0.5) == 1.0

    def test_no_updates_no_spread(self):
        assert expected_version_spread(20, 0.0) == 1.0

    def test_grows_with_tables(self):
        assert expected_version_spread(10, 0.5) > expected_version_spread(2, 0.5)

    def test_grows_with_update_fraction(self):
        assert expected_version_spread(10, 0.8) > expected_version_spread(10, 0.2)

    def test_saturates(self):
        assert expected_version_spread(1000, 1.0) == expected_version_spread(500, 1.0)

    def test_never_exceeds_table_count(self):
        assert expected_version_spread(2, 1.0) <= 2.0

    def test_update_fraction_clamped(self):
        assert expected_version_spread(10, 2.0) == expected_version_spread(10, 1.0)


class TestDiskProbes:
    def test_perfect_cache_no_probes(self):
        assert expected_disk_probes_per_read(1.0, 10, 0.01, 1.0) == 0.0

    def test_cold_cache_probes_at_least_one(self):
        assert expected_disk_probes_per_read(1.0, 10, 0.0, 0.0) >= 1.0

    def test_false_positives_add_probes(self):
        low = expected_disk_probes_per_read(1.0, 20, 0.001, 0.0)
        high = expected_disk_probes_per_read(1.0, 20, 0.05, 0.0)
        assert high > low

    def test_spread_adds_probes(self):
        assert expected_disk_probes_per_read(3.0, 20, 0.01, 0.0) > (
            expected_disk_probes_per_read(1.0, 20, 0.01, 0.0)
        )

    def test_hit_ratio_clamped(self):
        assert expected_disk_probes_per_read(1.0, 5, 0.01, 1.5) == 0.0
        assert expected_disk_probes_per_read(1.0, 5, 0.01, -0.5) == (
            expected_disk_probes_per_read(1.0, 5, 0.01, 0.0)
        )


class TestThreadContention:
    def test_unit_at_low_threads(self):
        assert thread_contention(1, 8) == pytest.approx(1.0, abs=0.01)

    def test_grows_with_threads(self):
        assert thread_contention(128, 8) > thread_contention(32, 8)

    def test_quadratic_shape(self):
        c = DEFAULT_COSTS.contention_quadratic
        assert thread_contention(64, 8) == pytest.approx(1.0 + c * 4.0)

    def test_more_cores_less_contention(self):
        assert thread_contention(64, 16) < thread_contention(64, 8)

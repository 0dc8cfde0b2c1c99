import numpy as np
import pytest

from repro.workload.mgrast import FOUR_DAYS_SECONDS, MGRastPhase, MGRastTraceGenerator
from repro.workload.trace import DEFAULT_WINDOW_SECONDS


@pytest.fixture
def gen():
    return MGRastTraceGenerator(seed=42, queries_per_window=200)


class TestReadRatioSeries:
    def test_four_day_window_count(self, gen):
        series = gen.read_ratio_series(FOUR_DAYS_SECONDS)
        assert len(series) == FOUR_DAYS_SECONDS // DEFAULT_WINDOW_SECONDS

    def test_values_are_ratios(self, gen):
        series = gen.read_ratio_series(24 * 3600)
        assert np.all((series >= 0.0) & (series <= 1.0))

    def test_exhibits_all_regimes(self, gen):
        """Figure 3: read-heavy, write-heavy, and mixed periods."""
        series = gen.read_ratio_series(FOUR_DAYS_SECONDS)
        assert (series > 0.7).any()
        assert (series < 0.3).any()
        assert ((series > 0.35) & (series < 0.65)).any()

    def test_abrupt_transitions_exist(self, gen):
        """§2.4.1: transitions are 'not smooth and often occur abruptly'."""
        series = gen.read_ratio_series(FOUR_DAYS_SECONDS)
        jumps = np.abs(np.diff(series))
        assert jumps.max() > 0.4

    def test_regimes_persist(self, gen):
        """Dwell times beyond a single window (extended periods)."""
        series = gen.read_ratio_series(FOUR_DAYS_SECONDS)
        small_moves = np.abs(np.diff(series)) < 0.15
        assert small_moves.mean() > 0.5

    def test_deterministic_per_seed(self):
        a = MGRastTraceGenerator(seed=1).read_ratio_series(24 * 3600)
        b = MGRastTraceGenerator(seed=1).read_ratio_series(24 * 3600)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = MGRastTraceGenerator(seed=1).read_ratio_series(24 * 3600)
        b = MGRastTraceGenerator(seed=2).read_ratio_series(24 * 3600)
        assert not np.array_equal(a, b)


class TestTraceGeneration:
    def test_record_count(self, gen):
        trace = gen.generate(duration_seconds=2 * 3600)
        windows = 2 * 3600 // DEFAULT_WINDOW_SECONDS
        assert len(trace) == windows * 200

    def test_records_time_ordered(self, gen):
        trace = gen.generate(duration_seconds=3600)
        times = [r.timestamp for r in trace]
        assert times == sorted(times)

    def test_mixed_kinds(self, gen):
        trace = gen.generate(duration_seconds=4 * 3600)
        kinds = {r.kind for r in trace}
        assert kinds == {"read", "write"}

    def test_window_rr_matches_series(self):
        gen = MGRastTraceGenerator(seed=7, queries_per_window=500)
        series = MGRastTraceGenerator(seed=7, queries_per_window=500).read_ratio_series(2 * 3600)
        trace = gen.generate(duration_seconds=2 * 3600)
        for (____, records), expected in zip(trace.windows(), series):
            observed = sum(1 for r in records if r.kind == "read") / len(records)
            assert observed == pytest.approx(expected, abs=0.1)


class TestPhases:
    def test_needs_phases(self):
        with pytest.raises(ValueError):
            MGRastTraceGenerator(phases=[])

    def test_custom_phases_respected(self):
        only_writes = [MGRastPhase("writes", 0.05, 0.01, 3.0, 1.0)]
        gen = MGRastTraceGenerator(phases=only_writes, seed=0)
        series = gen.read_ratio_series(12 * 3600)
        assert series.max() < 0.2

    def test_default_phases_mostly_read_leaning(self):
        """MG-RAST is 'read-heavy most of the time' (§4.8)."""
        gen = MGRastTraceGenerator(seed=3)
        series = gen.read_ratio_series(FOUR_DAYS_SECONDS)
        assert series.mean() > 0.5

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.characterize import (
    characterize_trace,
    fit_exponential_krd,
    read_ratio_windows,
)
from repro.workload.mgrast import MGRastTraceGenerator
from repro.workload.spec import READ, WRITE
from repro.workload.trace import QueryRecord, Trace


def trace_with_rr(rr, n=1000, keys=20, seed=0):
    rng = np.random.default_rng(seed)
    return Trace(
        [
            QueryRecord(
                timestamp=float(i),
                kind=READ if rng.random() < rr else WRITE,
                key=f"k{rng.integers(keys)}",
            )
            for i in range(n)
        ]
    )


class TestReadRatioWindows:
    def test_constant_rr_recovered(self):
        trace = trace_with_rr(0.8, n=2000)
        ratios = read_ratio_windows(trace, window_seconds=500)
        assert all(abs(r - 0.8) < 0.1 for r in ratios)

    def test_step_change_detected(self):
        reads = [QueryRecord(float(i), READ, f"k{i%5}") for i in range(500)]
        writes = [QueryRecord(500.0 + i, WRITE, f"k{i%5}") for i in range(500)]
        ratios = read_ratio_windows(Trace(reads + writes), window_seconds=250)
        assert ratios[0] > 0.9 and ratios[-1] < 0.1

    def test_empty_window_carries_forward(self):
        records = [QueryRecord(0.0, READ, "a"), QueryRecord(1000.0, READ, "b")]
        ratios = read_ratio_windows(Trace(records), window_seconds=100)
        assert all(r == 1.0 for r in ratios)


class TestKrdFit:
    def test_mle_is_sample_mean(self):
        records = [
            QueryRecord(0.0, READ, "a"),
            QueryRecord(1.0, READ, "b"),
            QueryRecord(2.0, READ, "a"),  # distance 1
            QueryRecord(3.0, READ, "b"),  # distance 1
            QueryRecord(4.0, READ, "a"),  # distance 1
        ]
        scale, n = fit_exponential_krd(Trace(records))
        assert scale == pytest.approx(1.0)
        assert n == 3

    def test_no_reuse_raises(self):
        records = [QueryRecord(float(i), READ, f"unique{i}") for i in range(10)]
        with pytest.raises(WorkloadError):
            fit_exponential_krd(Trace(records))

    def test_recovers_generator_scale(self):
        gen = MGRastTraceGenerator(
            seed=5, queries_per_window=2000, krd_mean_ops=50.0, n_keys=10**6
        )
        trace = gen.generate(duration_seconds=3600)
        scale, n = fit_exponential_krd(trace)
        assert n > 100
        assert 10.0 < scale < 250.0  # right order of magnitude


class TestCharacterizeTrace:
    def test_full_characterization(self):
        gen = MGRastTraceGenerator(seed=9, queries_per_window=500, krd_mean_ops=100.0)
        trace = gen.generate(duration_seconds=4 * 3600)
        ch = characterize_trace(trace)
        assert ch.n_windows == 16
        assert all(0.0 <= r <= 1.0 for r in ch.read_ratios)
        assert ch.krd_mean_ops > 0
        assert 0.0 <= ch.overall_read_ratio <= 1.0

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            characterize_trace(Trace([]))

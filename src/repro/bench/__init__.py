"""Benchmarking harness (the paper's modified-YCSB layer, §4.1–4.2).

Provides the YCSB-style benchmark runner over simulated servers, the
fresh-instance harness (the per-sample Docker reset), the performance
dataset container the surrogate model trains on, and the §4.2 data
collection campaign: 11 workloads x 20 configurations, noisy samples
dropped.
"""

from repro.bench.metrics import BenchmarkResult, ThroughputSample
from repro.bench.ycsb import YCSBBenchmark
from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.bench.collection import DataCollectionCampaign

__all__ = [
    "BenchmarkResult",
    "ThroughputSample",
    "YCSBBenchmark",
    "PerformanceDataset",
    "PerformanceSample",
    "DataCollectionCampaign",
]

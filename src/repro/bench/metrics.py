"""Benchmark metrics.

The paper's metric of interest is mean throughput — "the average number
of operations the system can perform per second" (§2.3); MG-RAST is
throughput- rather than latency-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.config.space import Configuration
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class ThroughputSample:
    """One throughput observation (ops/s at simulated time ``t``)."""

    t: float
    ops_per_second: float


@dataclass
class BenchmarkResult:
    """Outcome of one benchmark run: a (workload, config) -> AOPS sample."""

    workload: WorkloadSpec
    configuration: Configuration
    mean_throughput: float
    duration_seconds: float
    series: List[ThroughputSample] = field(default_factory=list)
    faulty: bool = False           # client fault injected (dropped in §4.2)
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def aops(self) -> float:
        """The paper's AOPS: average operations per second."""
        return self.mean_throughput

    def __repr__(self) -> str:
        flag = " FAULTY" if self.faulty else ""
        return (
            f"BenchmarkResult({self.workload.label}, "
            f"aops={self.mean_throughput:,.0f}{flag})"
        )

"""The §4.2 data-collection campaign.

"We use 11 different workloads spanning 10% increments between 0% and
100% reads.  The number of configurations |C| = 20, resulting in 220
total data points. ... 20 noisy/faulted samples were removed in our
dataset, due to faults in the load-generating clients, thus leaving 200
total samples."

The campaign samples configurations with the §3.5 coverage rule (every
key parameter's min, max, and default occur at least once), benchmarks
every (workload, configuration) pair on a fresh server, optionally
injects client faults into a deterministic subset of samples, and drops
the faulted points — reproducing the 220 -> 200 pipeline.  As in the
paper, a faulted point is dropped, never re-run.

Every (workload, configuration) pair is an independent work unit with a
pre-derived random stream, so the grid is submitted through an
:class:`~repro.runtime.backend.ExecutionBackend` and parallelizes across
cores with bitwise-identical results to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.bench.metrics import BenchmarkResult
from repro.bench.ycsb import YCSBBenchmark
from repro.config.space import Configuration
from repro.datastore.base import Datastore
from repro.runtime.backend import ExecutionBackend, resolve_backend
from repro.runtime.events import EventBus
from repro.sim.rng import SeedSequence
from repro.workload.spec import WorkloadSpec

#: §4.2 defaults.
DEFAULT_WORKLOAD_COUNT = 11
DEFAULT_CONFIG_COUNT = 20
DEFAULT_FAULT_COUNT = 20


@dataclass(frozen=True)
class BenchmarkTask:
    """One independent grid point: everything a worker needs, including
    its own random stream and (for faulted points) the pre-drawn client
    degradation factor."""

    index: int
    configuration: Configuration
    workload: WorkloadSpec
    rng: np.random.Generator
    benchmark: YCSBBenchmark
    degradation: Optional[float] = None


def execute_benchmark_task(task: BenchmarkTask) -> BenchmarkResult:
    """Run one grid point (module-level so process pools can pickle it)."""
    result = task.benchmark.run(task.configuration, task.workload, seed=task.rng)
    if task.degradation is not None:
        # A fault in the load-generating client: the recorded
        # throughput is garbage (partially idle shooter).
        result.mean_throughput *= task.degradation
        result.faulty = True
    return result


class DataCollectionCampaign:
    """Orchestrates the paper's offline benchmarking campaign."""

    def __init__(
        self,
        datastore: Datastore,
        base_workload: WorkloadSpec,
        key_parameters: Optional[Sequence[str]] = None,
        n_workloads: int = DEFAULT_WORKLOAD_COUNT,
        n_configurations: int = DEFAULT_CONFIG_COUNT,
        n_faulty: int = DEFAULT_FAULT_COUNT,
        benchmark: Optional[YCSBBenchmark] = None,
        seed: int = 0,
        backend: Optional[ExecutionBackend] = None,
        events: Optional[EventBus] = None,
    ):
        if n_workloads < 2:
            raise ValueError("need at least two workloads")
        if n_configurations < 1:
            raise ValueError("need at least one configuration")
        if n_faulty < 0:
            raise ValueError("n_faulty must be >= 0")
        if n_faulty >= n_workloads * n_configurations:
            # Faulty samples are dropped: the dataset would be empty.
            raise ValueError(
                f"n_faulty={n_faulty} leaves no sample of the "
                f"{n_workloads} x {n_configurations} = {n_workloads * n_configurations} grid"
            )
        self.datastore = datastore
        self.base_workload = base_workload
        self.key_parameters = tuple(key_parameters or datastore.key_parameters)
        self.n_workloads = n_workloads
        self.n_configurations = n_configurations
        self.n_faulty = n_faulty
        self.benchmark = benchmark or YCSBBenchmark(datastore)
        self.seeds = SeedSequence(seed)
        self.backend = backend
        self.events = events or EventBus()

    # -- plan ------------------------------------------------------------------

    def workloads(self) -> List[WorkloadSpec]:
        """Evenly spaced read ratios: 0%, 10%, ..., 100% for the default
        11 (§4.2)."""
        ratios = np.linspace(0.0, 1.0, self.n_workloads)
        return [self.base_workload.with_read_ratio(float(r)) for r in ratios]

    def configurations(self) -> List[Configuration]:
        """Coverage-sampled configurations over the key parameters."""
        rng = self.seeds.stream("config-sampling")
        return self.datastore.space.coverage_sample(
            rng, self.key_parameters, self.n_configurations
        )

    def plan_tasks(self) -> List[BenchmarkTask]:
        """The full grid as independent, seeded work units.

        Stream names and fault-RNG draw order match the historical
        serial loop, so campaigns reproduce bit-for-bit across backends
        and versions.
        """
        workloads = self.workloads()
        configs = self.configurations()
        total = len(workloads) * len(configs)
        fault_rng = self.seeds.stream("fault-injection")
        faulty_indices = (
            set(
                fault_rng.choice(total, size=min(self.n_faulty, total), replace=False).tolist()
            )
            if self.n_faulty
            else set()
        )
        # Degradations are drawn up front, in index order — the same
        # sequence the old inline loop consumed lazily.
        degradations: Dict[int, float] = {
            index: 0.2 + 0.5 * fault_rng.random()
            for index in range(total)
            if index in faulty_indices
        }

        tasks: List[BenchmarkTask] = []
        index = 0
        for config in configs:
            for workload in workloads:
                tasks.append(
                    BenchmarkTask(
                        index=index,
                        configuration=config,
                        workload=workload,
                        rng=self.seeds.stream(f"bench-{index}"),
                        benchmark=self.benchmark,
                        degradation=degradations.get(index),
                    )
                )
                index += 1
        return tasks

    # -- execution ----------------------------------------------------------------

    def run(self) -> PerformanceDataset:
        """Benchmark the full grid, drop faulted samples, return the rest."""
        results = self.run_raw()
        kept = [PerformanceSample.from_result(r) for r in results if not r.faulty]
        return PerformanceDataset(kept, self.key_parameters)

    def run_raw(self) -> List[BenchmarkResult]:
        """All 220 results, with ``faulty`` marking injected client faults."""
        tasks = self.plan_tasks()
        total = len(tasks)
        done = 0

        def on_result(index: int, result: BenchmarkResult) -> None:
            nonlocal done
            done += 1
            if result.faulty:
                self.events.publish(
                    "fault.injected",
                    f"client fault on sample {index}",
                    kind="bench-client",
                    index=index,
                )
            self.events.publish(
                "collect.sample",
                f"sample {done}/{total}",
                index=index,
                done=done,
                total=total,
                faulty=result.faulty,
            )

        return resolve_backend(self.backend).map_tasks(
            execute_benchmark_task, tasks, on_result=on_result
        )

"""Important-parameter identification via one-way ANOVA (paper §3.4).

Each performance-related parameter is varied one-factor-at-a-time with
every other parameter at its default ("C1 = {v1=5, v2=def, v3=def}" ...),
benchmarked, and scored by the variability of mean throughput across its
levels.  Parameters are ranked by that standard deviation (Figure 5) and
the key set is cut at the knee: "we find empirically that there is a
distinct drop in the variance when going from top-k to top-(k+1)".

An F-test over the per-level replicate groups provides the statistical
significance the paper's method name promises.

Each parameter's OFAT sweep is independent of every other parameter's,
so the sweeps are submitted as seeded work units through an
:class:`~repro.runtime.backend.ExecutionBackend` and run in parallel
with bitwise-identical results to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.ycsb import YCSBBenchmark
from repro.config.space import Configuration
from repro.datastore.base import Datastore
from repro.errors import SearchError
from repro.runtime.backend import ExecutionBackend, resolve_backend
from repro.runtime.events import EventBus
from repro.sim.rng import SeedSequence
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class ParameterEffect:
    """ANOVA outcome for one parameter."""

    name: str
    values: Tuple = ()
    level_means: Tuple[float, ...] = ()
    throughput_std: float = 0.0     # std of level means (Figure 5's metric)
    f_statistic: float = 0.0
    p_value: float = 1.0

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


@dataclass
class AnovaRanking:
    """Parameters ordered by descending throughput variability."""

    effects: List[ParameterEffect] = field(default_factory=list)

    def __post_init__(self):
        self.effects.sort(key=lambda e: e.throughput_std, reverse=True)

    def __len__(self) -> int:
        return len(self.effects)

    def __iter__(self):
        return iter(self.effects)

    def __getitem__(self, i) -> ParameterEffect:
        return self.effects[i]

    def names(self) -> List[str]:
        return [e.name for e in self.effects]

    def top(self, k: int) -> List[ParameterEffect]:
        return self.effects[:k]

    def without(self, names: Sequence[str]) -> "AnovaRanking":
        """Drop parameters (e.g. those ScyllaDB's tuner ignores, §4.10)."""
        excluded = set(names)
        return AnovaRanking([e for e in self.effects if e.name not in excluded])


@dataclass(frozen=True)
class SweepTask:
    """One parameter's full OFAT sweep as an independent work unit.

    ``rngs[i][j]`` is the pre-derived stream for the j-th replicate of
    the i-th sweep value — derived in the parent so scheduling cannot
    perturb seeding.
    """

    name: str
    values: Tuple
    configurations: Tuple[Configuration, ...]
    rngs: Tuple[Tuple[np.random.Generator, ...], ...]
    workload: WorkloadSpec
    benchmark: YCSBBenchmark


def execute_sweep_task(task: SweepTask) -> ParameterEffect:
    """Benchmark one parameter's levels and score the effect
    (module-level so process pools can pickle it)."""
    from scipy import stats  # only the ANOVA pays scipy.stats' ~0.5 s, ~45 MB load

    groups: List[List[float]] = []
    for config, level_rngs in zip(task.configurations, task.rngs):
        groups.append(
            [
                task.benchmark.run(config, task.workload, seed=rng).mean_throughput
                for rng in level_rngs
            ]
        )
    level_means = [float(np.mean(g)) for g in groups]
    repeats = len(task.rngs[0]) if task.rngs else 0
    if len(groups) >= 2 and repeats >= 2:
        f_stat, p_val = stats.f_oneway(*groups)
        f_stat = float(f_stat) if np.isfinite(f_stat) else 0.0
        p_val = float(p_val) if np.isfinite(p_val) else 1.0
    else:
        f_stat, p_val = 0.0, 1.0
    return ParameterEffect(
        name=task.name,
        values=task.values,
        level_means=tuple(level_means),
        throughput_std=float(np.std(level_means)),
        f_statistic=f_stat,
        p_value=p_val,
    )


def rank_parameters(
    datastore: Datastore,
    workload: WorkloadSpec,
    parameters: Optional[Sequence[str]] = None,
    sweep_count: int = 4,
    repeats: int = 2,
    benchmark: Optional[YCSBBenchmark] = None,
    seed: int = 0,
    backend: Optional[ExecutionBackend] = None,
    events: Optional[EventBus] = None,
) -> AnovaRanking:
    """One-factor-at-a-time ANOVA sweep over ``parameters``.

    For each parameter: benchmark each sweep value ``repeats`` times with
    everything else at defaults, take per-level mean throughputs, and
    score the parameter by their standard deviation plus a one-way
    F-test over the replicate groups.  Sweeps run through ``backend``
    (serial by default); seeds are derived in sweep order beforehand, so
    every backend produces the same ranking.
    """
    if repeats < 1:
        raise SearchError("repeats must be >= 1")
    bench = benchmark or YCSBBenchmark(datastore)
    names = list(parameters) if parameters is not None else [
        p.name for p in datastore.space.parameters
    ]
    seeds = SeedSequence(seed)
    events = events or EventBus()

    tasks: List[SweepTask] = []
    for name in names:
        spec = datastore.space[name]
        values = list(spec.sweep_values(sweep_count))
        configs = tuple(Configuration(datastore.space, {name: value}) for value in values)
        rngs = tuple(
            tuple(seeds.stream(f"{name}={value!r}") for _ in range(repeats))
            for value in values
        )
        tasks.append(
            SweepTask(
                name=name,
                values=tuple(values),
                configurations=configs,
                rngs=rngs,
                workload=workload,
                benchmark=bench,
            )
        )

    done = 0

    def on_result(index: int, effect: ParameterEffect) -> None:
        nonlocal done
        done += 1
        events.publish(
            "anova.parameter",
            f"anova: {effect.name}",
            name=effect.name,
            throughput_std=effect.throughput_std,
            done=done,
            total=len(tasks),
        )

    effects = resolve_backend(backend).map_tasks(
        execute_sweep_task, tasks, on_result=on_result
    )
    return AnovaRanking(effects)


def select_key_parameters(
    ranking: AnovaRanking,
    min_k: int = 3,
    max_k: int = 8,
    drop_ratio: float = 2.0,
) -> List[str]:
    """Cut the ranking at the knee.

    Scans k in [min_k, max_k) and cuts where ``std_k / std_(k+1)`` first
    exceeds ``drop_ratio`` — the paper's "distinct drop in the variance
    when going from top-k to top-(k+1)".  Falls back to ``max_k`` when no
    distinct drop exists.
    """
    stds = [max(e.throughput_std, 1e-9) for e in ranking]
    if len(stds) <= min_k:
        return ranking.names()
    for k in range(min_k, min(max_k, len(stds) - 1) + 1):
        if k >= len(stds):
            break
        if stds[k - 1] / stds[k] >= drop_ratio:
            return ranking.names()[:k]
    return ranking.names()[: min(max_k, len(stds))]


#: Parameters that all steer the same mechanism — memtable flushing.
MEMTABLE_FAMILY = (
    "memtable_flush_writers",
    "memtable_heap_space_in_mb",
    "memtable_offheap_space_in_mb",
)


def consolidate_memtable_parameters(selected: Sequence[str]) -> List[str]:
    """Collapse the memtable family onto ``memtable_cleanup_threshold``.

    §4.5: the flush-related parameters jointly determine one quantity —
    the flush trigger space — so the paper "skip[s] the second and third
    configuration parameters and only include[s] memtable_cleanup_threshold
    to control the frequency of MEMtables flushing".
    """
    out: List[str] = []
    injected = False
    for name in selected:
        if name in MEMTABLE_FAMILY:
            if not injected and "memtable_cleanup_threshold" not in selected:
                out.append("memtable_cleanup_threshold")
                injected = True
            continue
        out.append(name)
    return out

"""Configuration search strategies (paper §3.7 and baselines).

* :class:`ConfigurationOptimizer` — Rafiki's GA over the surrogate
  (Equation 4): thousands of ~45 us surrogate queries instead of
  7-minute benchmark samples.
* :class:`ExhaustiveSearch` — the grid search the paper uses as the
  theoretical upper bound (80 configurations per workload in §4.8),
  measured on the *real* (simulated) server.
* :class:`GreedySearch` — one-parameter-at-a-time sweeping, the "obvious
  technique" §4.6 shows is suboptimal because it ignores parameter
  interdependencies.
* :class:`RandomSearch` — same budget as the GA, no structure; an
  ablation baseline.

All searches report a cost ledger so the §4.8 claim (GA+surrogate uses
~1/10,000 of exhaustive search's benchmarking time) can be recomputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.bench.ycsb import YCSBBenchmark
from repro.config.space import Configuration
from repro.core.surrogate import SurrogateModel
from repro.datastore.base import Datastore
from repro.errors import SearchError
from repro.ga.algorithm import GAResult, GeneticAlgorithm, _check_sizes
from repro.ga.encoding import ConfigurationEncoder
from repro.runtime.events import EventBus
from repro.sim.rng import SeedLike, SeedSequence, derive_rng
from repro.workload.spec import WorkloadSpec

#: Wall-clock cost of one real benchmark sample: ~2 min of loading plus
#: 5 min of stable metric collection (paper §4.8).
SAMPLE_WALL_SECONDS = (2 + 5) * 60.0
#: The paper's measured surrogate latency: ~45 us per evaluation (§4.8).
SURROGATE_QUERY_SECONDS = 45e-6


@dataclass
class OptimizationResult:
    """A chosen configuration plus the cost of finding it."""

    configuration: Configuration
    predicted_throughput: float
    evaluations: int                  # surrogate queries or benchmark runs
    equivalent_wall_seconds: float    # what the search "cost"
    strategy: str
    history: List[float] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"OptimizationResult({self.strategy}, "
            f"pred={self.predicted_throughput:,.0f} ops/s, "
            f"{self.evaluations} evals)"
        )


class ConfigurationOptimizer:
    """Rafiki's online search: GA over the trained surrogate."""

    def __init__(
        self,
        surrogate: SurrogateModel,
        parameters: Optional[Sequence[str]] = None,
        population_size: int = 48,
        generations: int = 70,
        uncertainty_penalty: float = 0.0,
        bus: Optional[EventBus] = None,
    ):
        """The vendor default is a candidate floor: scored as the last
        row of generation 0's batch, it wins if the surrogate scores it
        higher than anything evolution found.  (Injecting it into the
        population instead collapses diversity around it.)

        ``uncertainty_penalty`` (an extension beyond the paper; finite,
        non-negative) subtracts ``k x ensemble-spread`` from the fitness, discouraging the GA
        from chasing over-predictions in sparsely sampled corners.

        The whole GA population is scored per generation in one
        surrogate call.  ``bus`` receives ``search.*`` progress events
        when given.  Population and generations follow the GA's size
        rules, checked here rather than at the first search.
        """
        self.surrogate = surrogate
        names = tuple(parameters or surrogate.feature_parameters)
        if names != surrogate.feature_parameters:
            raise SearchError(
                "optimizer parameters must match the surrogate's features"
            )
        if not 0.0 <= uncertainty_penalty < math.inf:
            raise SearchError("uncertainty_penalty must be finite and non-negative")
        _check_sizes(population_size, generations)
        self.encoder = ConfigurationEncoder(surrogate.space, names)
        #: The vendor default's genes, the floor candidate.
        self.default_genes = self.encoder.encode(
            surrogate.space.default_configuration()
        )
        self.population_size = population_size
        self.generations = generations
        self.uncertainty_penalty = uncertainty_penalty
        self.bus = bus

    def _fitness_batch(self, read_ratio: float):
        """One search's fitness, called once per generation with at most
        ``P + 1`` gene rows: it unit-scales them (``features_batch``'s
        ops) into a per-search feature buffer whose RR column is filled
        once and scores them in one call of the surrogate's method,
        looked up here so a wrapper put on the instance sees every call.
        The vendor default waits in the buffer's last row and rides the
        first ``P``-row call (generation 0's); its score — a one-row
        call's, the ensemble being row-stable — lands in ``fitness.floor``.
        """
        lower, span = self.encoder.lower, self.encoder.span
        rows = np.empty((self.population_size + 1, 1 + len(lower)))
        rows[:, 0] = read_ratio
        units = rows[:, 1:]
        np.divide(self.default_genes - lower, span, out=units[-1])
        penalty, population_size = self.uncertainty_penalty, self.population_size
        surrogate = self.surrogate
        predict = surrogate.predict_mean_std if penalty > 0.0 else surrogate.predict_features

        def fitness(genes_matrix: np.ndarray) -> np.ndarray:
            n = len(genes_matrix)
            block = units[:n]
            np.subtract(genes_matrix, lower, out=block)
            block /= span
            m = n + 1 if n == population_size and fitness.floor is None else n
            if penalty > 0.0:
                mean, spread = predict(rows[:m])
                scores = mean - penalty * spread
            else:
                scores = predict(rows[:m])
            if m > n:  # generation 0: the floor rode along
                fitness.floor = float(scores[-1])
                return scores[:-1]
            return scores

        fitness.floor = None
        return fitness

    def optimize(self, read_ratio: float, seed: SeedLike = 0) -> OptimizationResult:
        """Equation 3 via Equation 4: argmax_C fnet(W, C)."""
        if not (0.0 <= read_ratio <= 1.0):
            raise SearchError("read_ratio must be in [0, 1]")
        fitness = self._fitness_batch(read_ratio)
        ga = GeneticAlgorithm(
            encoder=self.encoder,
            fitness_batch_fn=fitness,
            population_size=self.population_size,
            generations=self.generations,
            bus=self.bus,
        )
        result: GAResult = ga.run(seed=seed)
        best_config = result.best_configuration
        best_fitness = result.best_fitness
        evaluations = result.evaluations + 1
        if fitness.floor > best_fitness:
            best_config = self.surrogate.space.default_configuration()
            best_fitness = fitness.floor
        return OptimizationResult(
            configuration=best_config,
            predicted_throughput=best_fitness,
            evaluations=evaluations,
            equivalent_wall_seconds=evaluations * SURROGATE_QUERY_SECONDS,
            strategy="rafiki-ga",
            history=result.history,
        )


class ExhaustiveSearch:
    """Grid search with real benchmarks: the theoretical best (§4.8)."""

    def __init__(
        self,
        datastore: Datastore,
        parameters: Sequence[str],
        resolution: int = 3,
        benchmark: Optional[YCSBBenchmark] = None,
        max_configs: Optional[int] = 80,
    ):
        if resolution < 2:
            raise SearchError("grid resolution must be >= 2")
        self.datastore = datastore
        self.parameters = tuple(parameters)
        self.resolution = resolution
        self.benchmark = benchmark or YCSBBenchmark(datastore)
        self.max_configs = max_configs

    def grid_configurations(self) -> List[Configuration]:
        configs = list(self.datastore.space.grid(self.parameters, self.resolution))
        if self.max_configs is not None and len(configs) > self.max_configs:
            # Deterministic thinning: keep an evenly spaced subset, as
            # the paper's "80 configuration sets per workload".
            idx = np.linspace(0, len(configs) - 1, self.max_configs).astype(int)
            configs = [configs[i] for i in np.unique(idx)]
        return configs

    def optimize(self, workload: WorkloadSpec, seed: int = 0) -> OptimizationResult:
        """Benchmark every grid point; return the measured best."""
        seeds = SeedSequence(seed)
        best_config, best_tp = None, -np.inf
        history: List[float] = []
        configs = self.grid_configurations()
        for i, config in enumerate(configs):
            tp = self.benchmark.run(config, workload, seed=seeds.stream(f"grid{i}")).mean_throughput
            history.append(max(best_tp, tp))
            if tp > best_tp:
                best_config, best_tp = config, tp
        return OptimizationResult(
            configuration=best_config,
            predicted_throughput=best_tp,
            evaluations=len(configs),
            equivalent_wall_seconds=len(configs) * SAMPLE_WALL_SECONDS,
            strategy="exhaustive-grid",
            history=history,
        )


class GreedySearch:
    """One-parameter-at-a-time sweep on the surrogate.

    Tunes each parameter to its locally best value while holding the
    others fixed, in ranking order, a single pass — the strategy §4.6
    argues cannot find interdependent optima (Figure 6).
    """

    def __init__(
        self,
        surrogate: SurrogateModel,
        resolution: int = 8,
    ):
        self.surrogate = surrogate
        self.resolution = resolution

    def optimize(self, read_ratio: float) -> OptimizationResult:
        space = self.surrogate.space
        current = space.default_configuration()
        evaluations = 0
        history: List[float] = []
        for name in self.surrogate.feature_parameters:
            # Score the whole per-parameter sweep in one surrogate call
            # instead of one ensemble walk per grid value.
            values = list(space[name].grid(self.resolution))
            candidates = [current.with_updates(**{name: v}) for v in values]
            rows = np.stack(
                [self.surrogate.encode(read_ratio, c) for c in candidates]
            )
            preds = self.surrogate.predict_features(rows)
            evaluations += len(values)
            best_idx = int(np.argmax(preds))
            current = current.with_updates(**{name: values[best_idx]})
            history.append(float(preds[best_idx]))
        final_tp = self.surrogate.predict(read_ratio, current)
        evaluations += 1
        return OptimizationResult(
            configuration=current,
            predicted_throughput=float(final_tp),
            evaluations=evaluations,
            equivalent_wall_seconds=evaluations * SURROGATE_QUERY_SECONDS,
            strategy="greedy-ofat",
            history=history,
        )


class RandomSearch:
    """Uniform random probing of the surrogate at a fixed budget.

    Candidates are sampled up front (same RNG stream as the old
    per-config loop) and scored in ``chunk_size`` blocks, so the
    surrogate runs each member network ~budget/chunk_size times instead
    of once per configuration.
    """

    def __init__(
        self, surrogate: SurrogateModel, budget: int = 3400, chunk_size: int = 512
    ):
        if budget < 1:
            raise SearchError("budget must be positive")
        if chunk_size < 1:
            raise SearchError("chunk_size must be positive")
        self.surrogate = surrogate
        self.budget = budget
        self.chunk_size = chunk_size

    def optimize(self, read_ratio: float, seed: SeedLike = 0) -> OptimizationResult:
        rng = derive_rng(seed)
        space = self.surrogate.space
        names = self.surrogate.feature_parameters
        configs = [
            space.sample_configuration(rng, names) for _ in range(self.budget)
        ]
        preds = np.empty(self.budget)
        for start in range(0, self.budget, self.chunk_size):
            block = configs[start : start + self.chunk_size]
            rows = np.stack([self.surrogate.encode(read_ratio, c) for c in block])
            preds[start : start + len(block)] = self.surrogate.predict_features(rows)
        best_idx = int(np.argmax(preds))
        running_best = np.maximum.accumulate(preds)
        return OptimizationResult(
            configuration=configs[best_idx],
            predicted_throughput=float(preds[best_idx]),
            evaluations=self.budget,
            equivalent_wall_seconds=self.budget * SURROGATE_QUERY_SECONDS,
            strategy="random-search",
            history=[float(v) for v in running_best],
        )

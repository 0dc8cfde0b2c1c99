"""The Rafiki middleware (paper Figure 1).

:class:`RafikiPipeline` runs the offline phases — workload
characterization, ANOVA parameter identification, data collection,
surrogate training — and produces a :class:`Rafiki` instance: the online
component that, given an observed read ratio, searches the surrogate
with a GA and returns a close-to-optimal configuration in seconds.

The §3.8 "DBA level of intervention" is the constructor signature: the
DBA supplies the performance metric (throughput, via the benchmark), the
eligible parameter list with valid ranges (the configuration space), and
a representative trace (or a base workload spec).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.bench.collection import DataCollectionCampaign
from repro.bench.dataset import PerformanceDataset
from repro.bench.ycsb import YCSBBenchmark
from repro.config.space import Configuration
from repro.core.anova import (
    AnovaRanking,
    consolidate_memtable_parameters,
    rank_parameters,
    select_key_parameters,
)
from repro.core.cache import RecommendationCache
from repro.core.search import ConfigurationOptimizer, OptimizationResult
from repro.core.surrogate import SurrogateModel
from repro.datastore.base import Datastore
from repro.datastore.scylla import ScyllaLike
from repro.errors import SearchError, TrainingError
from repro.ml.ensemble import EnsembleConfig
from repro.runtime.backend import ExecutionBackend
from repro.runtime.events import EventBus
from repro.sim.rng import SeedSequence
from repro.workload.characterize import WorkloadCharacterization, characterize_trace
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

#: The most forward rows one ``Rafiki.prefetch`` lockstep scores: the
#: cold keys are searched ``PREFETCH_ROWS // (population_size + 1)`` at a
#: time (at least one), which bounds the forward's activations however
#: many keys a campaign visits.
PREFETCH_ROWS = 1_000


@dataclass
class PipelineReport:
    """Everything the offline pipeline produced, for inspection."""

    characterization: Optional[WorkloadCharacterization]
    ranking: Optional[AnovaRanking]
    key_parameters: List[str]
    dataset: PerformanceDataset
    surrogate: SurrogateModel


class Rafiki:
    """The online tuner: observed workload in, configuration out."""

    def __init__(
        self,
        datastore: Datastore,
        surrogate: SurrogateModel,
        key_parameters: Sequence[str],
        seed: int = 0,
        rr_cache_resolution: float = 0.05,
        cache_capacity: int = 128,
    ):
        self.datastore = datastore
        self.surrogate = surrogate
        self.key_parameters = tuple(key_parameters)
        self.optimizer = ConfigurationOptimizer(surrogate, self.key_parameters)
        self.seeds = SeedSequence(seed)
        # Validates rr_cache_resolution > 0 up front: a zero/negative
        # resolution used to surface as a ZeroDivisionError at the first
        # recommend() call.
        self.cache = RecommendationCache(
            resolution=rr_cache_resolution, capacity=cache_capacity
        )
        # ``prefetch``'s searches, by cache key, while its block runs:
        # (the seed stream's index, the result), all searched under
        # ``_prefetch_stamp`` (see ``_search_stamp``).
        self._prefetched: Dict[float, tuple] = {}
        self._prefetch_stamp: Optional[tuple] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_prefetched"] = {}  # a campaign's searches never travel
        state["_prefetch_stamp"] = None
        return state

    @property
    def rr_cache_resolution(self) -> float:
        return self.cache.resolution

    def recommend(self, read_ratio: float, use_cache: bool = True) -> OptimizationResult:
        """Close-to-optimal configuration for the observed read ratio.

        Results are cached on a quantized RR grid: when the workload
        oscillates between regimes (Figure 3), revisiting a regime is
        free — part of how Rafiki reacts within seconds.  The cache is
        LRU-bounded with hit/miss/eviction stats on ``self.cache``.
        """
        key = self.cache.quantize(read_ratio)
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        name = f"search-rr{key}"
        ready = self._prefetched.pop(key, None)
        if ready is not None and ready[0] == self.seeds.count(name) and self._stamp_holds():
            # The search this miss would run, already run by ``prefetch``
            # on the same stream and inputs: take the stream.
            result = ready[1]
            self.seeds.advance(name)
        else:
            result = self.optimizer.optimize(key, seed=self.seeds.stream(name))
        self.cache.put(key, result)
        return result

    @contextmanager
    def prefetch(self, read_ratios: Iterable[Optional[float]]) -> Iterator[None]:
        """Search ahead, for ``recommend`` to take: a serve campaign's one
        search batch.

        Every read ratio (``None`` and ratios outside ``[0, 1]`` are
        skipped) whose cache key is not cached now is searched once, on
        the named seed stream its miss would take — peeked, not taken —
        in lockstep GAs (:meth:`ConfigurationOptimizer.optimize_many`) of
        at most :data:`PREFETCH_ROWS` forward rows each.  Nothing is
        counted, cached or evicted here.  Inside the block a miss on such
        a key takes the result instead of searching, while its stream is
        still at that index and the search's inputs still hold (see
        :meth:`_search_stamp`); it then counts, caches, evicts and
        advances the stream exactly as a search would.  Whatever is not
        taken is dropped when the block ends; a lockstep that fails
        leaves its misses to search.
        """
        keys: Dict[float, None] = {}
        for read_ratio in read_ratios:
            if read_ratio is not None and 0.0 <= read_ratio <= 1.0:
                key = self.cache.quantize(read_ratio)
                if key not in self.cache:
                    keys[key] = None
        optimizer, cold = self.optimizer, list(keys)
        per_lockstep = max(1, PREFETCH_ROWS // (optimizer.population_size + 1))
        for start in range(0, len(cold), per_lockstep):
            chunk = cold[start:start + per_lockstep]
            names = [f"search-rr{key}" for key in chunk]
            try:
                results = optimizer.optimize_many(
                    chunk, [self.seeds.peek(name) for name in names]
                )
            except SearchError:
                continue
            for key, name, result in zip(chunk, names, results):
                self._prefetched[key] = (self.seeds.count(name), result)
        if self._prefetched:
            self._prefetch_stamp = self._search_stamp()
        try:
            yield
        finally:
            self._prefetched, self._prefetch_stamp = {}, None

    def _search_stamp(self) -> tuple:
        """What a search's result depends on besides its key and seed
        stream: the surrogate's forward plan — the object, rebuilt
        exactly when a member or scaler array is rebound — and the GA's
        population, generations and uncertainty penalty."""
        optimizer = self.optimizer
        return (
            optimizer.surrogate.ensemble._plan(),
            optimizer.population_size,
            optimizer.generations,
            optimizer.uncertainty_penalty,
        )

    def _stamp_holds(self) -> bool:
        """Whether the prefetched results were searched on today's inputs
        (the plan compared by identity: equal arrays are not enough)."""
        then, now = self._prefetch_stamp, self._search_stamp()
        return then[0] is now[0] and then[1:] == now[1:]

    def predicted_mean_std(
        self, read_ratio: float, config: Configuration
    ) -> tuple:
        """Predicted AOPS and ensemble spread for one configuration.

        The online controller's canary guard uses the spread to widen
        its rollback threshold where the surrogate is uncertain.
        """
        row = self.surrogate.encode(read_ratio, config)[None, :]
        mean, std = self.surrogate.predict_mean_std(row)
        return float(mean[0]), float(std[0])

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        """Persist the trained surrogate (the expensive artifact).

        The datastore and key-parameter schema are code; only the model
        weights travel.  Restore with :meth:`load`.
        """
        from repro.core.persistence import save_surrogate

        save_surrogate(self.surrogate, path)

    @classmethod
    def load(cls, path, datastore: Datastore, seed: int = 0) -> "Rafiki":
        """Rebuild a Rafiki from a surrogate saved by :meth:`save`."""
        from repro.core.persistence import load_surrogate

        surrogate = load_surrogate(path, datastore.space)
        return cls(datastore, surrogate, surrogate.feature_parameters, seed=seed)


class RafikiPipeline:
    """Offline phases: characterize -> ANOVA -> collect -> train.

    Execution strategy and progress reporting are injected: ``backend``
    decides how the embarrassingly parallel stages (ANOVA sweeps, the
    collection campaign, ensemble training) are scheduled, and ``events``
    receives structured progress on the ``pipeline.*`` / ``anova.*`` /
    ``collect.*`` topics.
    """

    def __init__(
        self,
        datastore: Datastore,
        base_workload: WorkloadSpec,
        benchmark: Optional[YCSBBenchmark] = None,
        ensemble_config: Optional[EnsembleConfig] = None,
        n_workloads: int = 11,
        n_configurations: int = 20,
        n_faulty: int = 20,
        anova_repeats: int = 2,
        key_parameter_count: int = 5,
        seed: int = 0,
        cassandra_ranking: Optional[AnovaRanking] = None,
        backend: Optional[ExecutionBackend] = None,
        events: Optional[EventBus] = None,
    ):
        self.datastore = datastore
        self.base_workload = base_workload
        self.benchmark = benchmark or YCSBBenchmark(datastore)
        self.ensemble_config = ensemble_config
        self.n_workloads = n_workloads
        self.n_configurations = n_configurations
        self.n_faulty = n_faulty
        self.anova_repeats = anova_repeats
        self.key_parameter_count = key_parameter_count
        self.seed = seed
        self.cassandra_ranking = cassandra_ranking
        self.backend = backend
        self.events = events or EventBus()

    def _stage(self, message: str, **payload) -> None:
        self.events.publish("pipeline.stage", message, **payload)

    # -- stage 1 ------------------------------------------------------------------

    def characterize(self, trace: Trace) -> WorkloadCharacterization:
        """§3.3: RR windows + exponential KRD fit from a raw trace."""
        self._stage("characterizing workload trace", stage="characterize")
        return characterize_trace(trace)

    # -- stage 2 ------------------------------------------------------------------

    def identify_key_parameters(self) -> tuple:
        """§3.4: OFAT ANOVA ranking, knee cut, memtable consolidation.

        For ScyllaDB the paper's §4.10 correction applies: the internal
        auto-tuner contaminates direct ANOVA, so we start from the
        Cassandra ranking (if provided), strip auto-tuned parameters, and
        top up by variance until five parameters remain.
        """
        if isinstance(self.datastore, ScyllaLike) and self.cassandra_ranking is not None:
            self._stage(
                "deriving ScyllaDB key parameters from Cassandra ANOVA",
                stage="identify",
            )
            ranking = self.cassandra_ranking.without(
                self.datastore.autotuned_parameters
            )
            selected = self._top_up(ranking, self.key_parameter_count)
            return ranking, selected

        self._stage("running one-factor-at-a-time ANOVA", stage="identify")
        ranking = rank_parameters(
            self.datastore,
            self.base_workload,
            repeats=self.anova_repeats,
            benchmark=self.benchmark,
            seed=self.seed,
            backend=self.backend,
            events=self.events,
        )
        selected = select_key_parameters(ranking)
        # Consolidate the flush-parameter family (§4.5), then keep the
        # paper's "top parameters" count, topping up from the ranking if
        # consolidation shrank the set ("adding in new parameters, sorted
        # by variance, until 5 parameters are in the set", §4.10).
        selected = consolidate_memtable_parameters(selected)
        if len(selected) < self.key_parameter_count:
            selected = self._top_up(ranking, self.key_parameter_count, seed_list=selected)
        return ranking, selected[: self.key_parameter_count]

    def _top_up(self, ranking: AnovaRanking, count: int, seed_list=()) -> List[str]:
        """Walk the ranking, applying the §4.5 consolidation rule, until
        ``count`` parameters are collected."""
        selected = list(seed_list)
        for effect in ranking:
            candidate = consolidate_memtable_parameters([*selected, effect.name])
            for name in candidate:
                if name not in selected:
                    selected.append(name)
            if len(selected) >= count:
                break
        return selected[:count]

    # -- stage 3 ------------------------------------------------------------------

    def collect(self, key_parameters: Sequence[str]) -> PerformanceDataset:
        """§3.5/§4.2: the 11x20 campaign with faulty samples dropped."""
        self._stage("collecting training data", stage="collect")
        campaign = DataCollectionCampaign(
            self.datastore,
            self.base_workload,
            key_parameters=key_parameters,
            n_workloads=self.n_workloads,
            n_configurations=self.n_configurations,
            n_faulty=self.n_faulty,
            benchmark=self.benchmark,
            seed=self.seed,
            backend=self.backend,
            events=self.events,
        )
        return campaign.run()

    # -- stage 4 ------------------------------------------------------------------

    def train(
        self, dataset: PerformanceDataset, key_parameters: Sequence[str]
    ) -> SurrogateModel:
        """§3.6: fit the Bayesian-regularized DNN ensemble."""
        self._stage("training surrogate model", stage="train")
        surrogate = SurrogateModel(
            self.datastore.space,
            key_parameters,
            ensemble_config=self.ensemble_config,
        )
        surrogate.fit(dataset, seed=self.seed, backend=self.backend)
        return surrogate

    # -- all together ----------------------------------------------------------------

    def run(
        self,
        trace: Optional[Trace] = None,
        key_parameters: Optional[Sequence[str]] = None,
        dataset: Optional[PerformanceDataset] = None,
    ) -> tuple:
        """Run the offline pipeline; returns ``(rafiki, report)``.

        Stages can be skipped by supplying their outputs (a pre-computed
        key-parameter list or dataset), which the experiment harnesses
        use to share the expensive collection step.
        """
        characterization = self.characterize(trace) if trace is not None else None

        ranking: Optional[AnovaRanking] = None
        if key_parameters is None:
            ranking, key_parameters = self.identify_key_parameters()
        key_parameters = list(key_parameters)
        if not key_parameters:
            raise TrainingError("no key parameters identified")

        if dataset is None:
            dataset = self.collect(key_parameters)
        surrogate = self.train(dataset, key_parameters)

        rafiki = Rafiki(
            self.datastore,
            surrogate,
            key_parameters,
            seed=self.seed,
        )
        report = PipelineReport(
            characterization=characterization,
            ranking=ranking,
            key_parameters=key_parameters,
            dataset=dataset,
            surrogate=surrogate,
        )
        return rafiki, report

import numpy as np
import pytest

from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.bench.ycsb import YCSBBenchmark
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.search import (
    SAMPLE_WALL_SECONDS,
    ConfigurationOptimizer,
    ExhaustiveSearch,
    GreedySearch,
    RandomSearch,
)
from repro.core.surrogate import SurrogateModel
from repro.datastore import CassandraLike
from repro.errors import SearchError
from repro.ml.ensemble import EnsembleConfig
from repro.workload.spec import WorkloadSpec

PARAMS = list(CASSANDRA_KEY_PARAMETERS)


@pytest.fixture(scope="module")
def surrogate():
    """Surrogate trained on a synthetic surface with a known optimum:
    bigger cache always helps, optimum CW in the middle."""
    space = cassandra_space()
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(25):
        config = space.sample_configuration(rng, PARAMS)
        vec = config.to_vector(PARAMS)  # unit scale
        for rr in np.linspace(0, 1, 5):
            cw_term = -((vec[1] - 0.5) ** 2)  # peak at mid CW
            target = 60_000 + 30_000 * vec[2] + 20_000 * cw_term + 5_000 * rr
            samples.append(
                PerformanceSample(
                    workload=WorkloadSpec(read_ratio=float(rr)),
                    configuration=config,
                    throughput=float(target),
                )
            )
    dataset = PerformanceDataset(samples, PARAMS)
    model = SurrogateModel(space, PARAMS, EnsembleConfig(n_networks=4, max_epochs=60))
    return model.fit(dataset, seed=2)


class TestConfigurationOptimizer:
    def test_finds_known_optimum_direction(self, surrogate):
        opt = ConfigurationOptimizer(surrogate)
        result = opt.optimize(0.5, seed=0)
        # Big cache is always good on this surface.
        assert result.configuration["file_cache_size_in_mb"] > 1500

    def test_reports_costs(self, surrogate):
        result = ConfigurationOptimizer(surrogate).optimize(0.5, seed=0)
        assert result.evaluations > 100
        assert result.equivalent_wall_seconds < 1.0
        assert result.strategy == "rafiki-ga"

    def test_rejects_bad_rr(self, surrogate):
        with pytest.raises(SearchError):
            ConfigurationOptimizer(surrogate).optimize(1.5)

    def test_parameter_mismatch_rejected(self, surrogate):
        with pytest.raises(SearchError):
            ConfigurationOptimizer(surrogate, parameters=PARAMS[:2])

    def test_negative_uncertainty_penalty_rejected(self, surrogate):
        # NaN would search unpenalized, inf would score NaN fitness.
        for penalty in (-0.1, float("nan"), float("inf")):
            with pytest.raises(SearchError, match="uncertainty_penalty"):
                ConfigurationOptimizer(surrogate, uncertainty_penalty=penalty)

    @pytest.mark.parametrize("population,generations", [(2, 0), (3, 70), (48, 0)])
    def test_ga_sizes_checked_at_construction(self, surrogate, population, generations):
        """A budget the GA would refuse is refused when the optimizer is
        built, not at its first search inside a live window."""
        with pytest.raises(SearchError):
            ConfigurationOptimizer(
                surrogate, population_size=population, generations=generations
            )


class TestGreedySearch:
    def test_improves_over_default(self, surrogate):
        result = GreedySearch(surrogate).optimize(0.5)
        default_pred = surrogate.predict(0.5, surrogate.space.default_configuration())
        assert result.predicted_throughput >= default_pred

    def test_cheaper_than_ga(self, surrogate):
        greedy = GreedySearch(surrogate).optimize(0.5)
        ga = ConfigurationOptimizer(surrogate).optimize(0.5, seed=0)
        assert greedy.evaluations < ga.evaluations

    def test_ga_close_to_greedy_on_separable_surface(self, surrogate):
        """On a *separable* surface greedy is optimal; the GA must come
        close (its advantage — Figure 6 — is on interdependent surfaces,
        exercised in benchmarks/test_ablation_search.py)."""
        greedy = GreedySearch(surrogate).optimize(0.5)
        ga = ConfigurationOptimizer(surrogate).optimize(0.5, seed=0)
        assert ga.predicted_throughput >= greedy.predicted_throughput * 0.93


class TestRandomSearch:
    def test_budget_respected(self, surrogate):
        result = RandomSearch(surrogate, budget=200).optimize(0.5, seed=0)
        assert result.evaluations == 200

    def test_finds_something_reasonable(self, surrogate):
        result = RandomSearch(surrogate, budget=500).optimize(0.5, seed=0)
        default_pred = surrogate.predict(0.5, surrogate.space.default_configuration())
        assert result.predicted_throughput >= default_pred

    def test_invalid_budget(self, surrogate):
        with pytest.raises(SearchError):
            RandomSearch(surrogate, budget=0)


class TestExhaustiveSearch:
    @pytest.fixture(scope="class")
    def cassandra(self):
        return CassandraLike()

    def test_grid_thinned_to_max(self, cassandra):
        search = ExhaustiveSearch(cassandra, PARAMS, resolution=3, max_configs=80)
        assert len(search.grid_configurations()) <= 80

    def test_optimize_beats_default(self, cassandra):
        wl = WorkloadSpec(read_ratio=0.9, n_keys=1_000_000)
        bench = YCSBBenchmark(cassandra, run_seconds=20)
        search = ExhaustiveSearch(
            cassandra, ["compaction_method", "file_cache_size_in_mb"],
            resolution=3, benchmark=bench, max_configs=6,
        )
        result = search.optimize(wl, seed=0)
        default_tp = bench.run(cassandra.default_configuration(), wl, seed=123).mean_throughput
        assert result.predicted_throughput >= default_tp * 0.95

    def test_wall_cost_accounting(self, cassandra):
        wl = WorkloadSpec(read_ratio=0.5, n_keys=1_000_000)
        bench = YCSBBenchmark(cassandra, run_seconds=10)
        search = ExhaustiveSearch(
            cassandra, ["compaction_method"], resolution=2, benchmark=bench
        )
        result = search.optimize(wl, seed=0)
        assert result.equivalent_wall_seconds == result.evaluations * SAMPLE_WALL_SECONDS

    def test_resolution_validated(self, cassandra):
        with pytest.raises(SearchError):
            ExhaustiveSearch(cassandra, PARAMS, resolution=1)

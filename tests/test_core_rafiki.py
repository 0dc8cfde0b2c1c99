import pytest

from repro.bench.ycsb import YCSBBenchmark
from repro.config import CASSANDRA_KEY_PARAMETERS
from repro.core.anova import AnovaRanking, ParameterEffect
from repro.core.rafiki import Rafiki, RafikiPipeline
from repro.datastore import CassandraLike, ScyllaLike
from repro.errors import SearchError
from repro.ml.ensemble import EnsembleConfig
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def base_workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=1_000_000)


@pytest.fixture(scope="module")
def pipeline_result(cassandra, base_workload):
    pipe = RafikiPipeline(
        cassandra,
        base_workload,
        benchmark=YCSBBenchmark(cassandra, run_seconds=30),
        ensemble_config=EnsembleConfig(n_networks=4, max_epochs=60),
        n_workloads=5,
        n_configurations=8,
        n_faulty=2,
        seed=3,
    )
    return pipe.run(key_parameters=CASSANDRA_KEY_PARAMETERS)


class TestPipeline:
    def test_produces_rafiki_and_report(self, pipeline_result):
        rafiki, report = pipeline_result
        assert isinstance(rafiki, Rafiki)
        assert report.key_parameters == list(CASSANDRA_KEY_PARAMETERS)
        assert len(report.dataset) == 5 * 8 - 2
        assert report.surrogate.is_fitted

    def test_recommend_returns_valid_configuration(self, pipeline_result, cassandra):
        rafiki, _ = pipeline_result
        result = rafiki.recommend(0.8)
        for name in CASSANDRA_KEY_PARAMETERS:
            cassandra.space[name].validate(result.configuration[name])

    def test_recommend_cached_per_rr_band(self, pipeline_result):
        rafiki, _ = pipeline_result
        a = rafiki.recommend(0.80)
        b = rafiki.recommend(0.81)  # same 0.05-band
        assert a is b

    def test_recommend_cache_bypass(self, pipeline_result):
        rafiki, _ = pipeline_result
        a = rafiki.recommend(0.6)
        b = rafiki.recommend(0.6, use_cache=False)
        assert a is not b

    def test_recommend_validates_rr(self, pipeline_result):
        rafiki, _ = pipeline_result
        with pytest.raises(SearchError):
            rafiki.recommend(1.2)

    def test_invalid_cache_resolution_rejected_up_front(self, pipeline_result, cassandra):
        """A zero/negative resolution used to be a silent ZeroDivisionError."""
        _, report = pipeline_result
        for bad in (0.0, -0.05):
            with pytest.raises(SearchError, match="rr_cache_resolution"):
                Rafiki(
                    cassandra,
                    report.surrogate,
                    report.key_parameters,
                    rr_cache_resolution=bad,
                )

    def test_boundary_read_ratios_quantize_onto_grid(self, pipeline_result, cassandra):
        """RR 0.0 and 1.0 must land on valid grid keys for any resolution."""
        _, report = pipeline_result
        rafiki = Rafiki(
            cassandra,
            report.surrogate,
            report.key_parameters,
            rr_cache_resolution=0.3,  # does not divide 1 evenly
        )
        assert rafiki.cache.quantize(0.0) == 0.0
        assert 0.0 <= rafiki.cache.quantize(1.0) <= 1.0

    def test_cache_stats_and_bounds(self, pipeline_result, cassandra):
        _, report = pipeline_result
        rafiki = Rafiki(cassandra, report.surrogate, report.key_parameters)
        assert rafiki.cache.capacity == 128
        a = rafiki.recommend(0.80)
        b = rafiki.recommend(0.81)  # same band -> cache hit
        assert a is b
        assert rafiki.cache.stats.hits == 1
        assert rafiki.cache.stats.misses == 1

    def test_predicted_throughput_positive(self, pipeline_result, cassandra):
        rafiki, _ = pipeline_result
        mean, _ = rafiki.predicted_mean_std(0.5, cassandra.default_configuration())
        assert mean > 0

    def test_identify_selects_five(self, cassandra, base_workload):
        pipe = RafikiPipeline(
            cassandra,
            base_workload,
            benchmark=YCSBBenchmark(cassandra, run_seconds=20),
            anova_repeats=2,
            seed=0,
        )
        ranking, selected = pipe.identify_key_parameters()
        assert len(selected) == 5
        assert isinstance(ranking, AnovaRanking)
        # The consolidation rule (§4.5): no raw memtable-space params.
        assert not set(selected) & {
            "memtable_flush_writers",
            "memtable_heap_space_in_mb",
            "memtable_offheap_space_in_mb",
        }

    def test_dataset_can_be_reused(self, cassandra, base_workload, pipeline_result):
        _, report = pipeline_result
        pipe = RafikiPipeline(
            cassandra,
            base_workload,
            ensemble_config=EnsembleConfig(n_networks=2, max_epochs=30),
            seed=4,
        )
        rafiki, new_report = pipe.run(
            key_parameters=CASSANDRA_KEY_PARAMETERS, dataset=report.dataset
        )
        assert new_report.dataset is report.dataset
        assert rafiki.recommend(0.5).predicted_throughput > 0


class TestScyllaPath:
    def test_scylla_derives_from_cassandra_ranking(self):
        """§4.10: strip auto-tuned params from the Cassandra ranking."""
        scylla = ScyllaLike()
        fake_ranking = AnovaRanking(
            [
                ParameterEffect(name="compaction_method", throughput_std=10.0),
                ParameterEffect(name="concurrent_writes", throughput_std=9.0),
                ParameterEffect(name="file_cache_size_in_mb", throughput_std=8.0),
                ParameterEffect(name="memtable_cleanup_threshold", throughput_std=7.0),
                ParameterEffect(name="concurrent_compactors", throughput_std=6.0),
                ParameterEffect(name="memtable_flush_writers", throughput_std=5.0),
                ParameterEffect(name="compaction_throughput_mb_per_sec", throughput_std=4.0),
                ParameterEffect(name="bloom_filter_fp_chance", throughput_std=3.0),
                ParameterEffect(name="sstable_size_in_mb", throughput_std=2.5),
                ParameterEffect(name="concurrent_reads", throughput_std=2.0),
            ]
        )
        pipe = RafikiPipeline(
            scylla,
            WorkloadSpec(read_ratio=0.7, n_keys=1_000_000),
            cassandra_ranking=fake_ranking,
            seed=0,
        )
        _, selected = pipe.identify_key_parameters()
        assert len(selected) == 5
        assert not set(selected) & scylla.autotuned_parameters
        assert "compaction_method" in selected

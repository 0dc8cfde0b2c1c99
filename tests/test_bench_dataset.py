import numpy as np
import pytest

from repro.bench.dataset import (
    PerformanceDataset,
    PerformanceSample,
    load_dataset,
    save_dataset,
)
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.errors import TrainingError
from repro.workload.spec import WorkloadSpec

PARAMS = list(CASSANDRA_KEY_PARAMETERS)


@pytest.fixture(scope="module")
def space():
    return cassandra_space()


def make_dataset(space, n_configs=6, n_workloads=5, seed=0):
    rng = np.random.default_rng(seed)
    configs = [space.sample_configuration(rng, PARAMS) for _ in range(n_configs)]
    samples = []
    for ci, config in enumerate(configs):
        for wi in range(n_workloads):
            rr = wi / (n_workloads - 1)
            samples.append(
                PerformanceSample(
                    workload=WorkloadSpec(read_ratio=rr),
                    configuration=config,
                    throughput=1000.0 * (ci + 1) + 100 * wi,
                )
            )
    return PerformanceDataset(samples, PARAMS)


class TestEncoding:
    def test_feature_matrix_shape(self, space):
        ds = make_dataset(space)
        assert ds.features().shape == (30, 1 + len(PARAMS))

    def test_first_feature_is_rr(self, space):
        ds = make_dataset(space)
        assert set(np.round(ds.features()[:, 0], 2)) == {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_features_unit_scaled(self, space):
        ds = make_dataset(space)
        f = ds.features()
        assert f.min() >= 0.0 and f.max() <= 1.0

    def test_targets(self, space):
        ds = make_dataset(space)
        assert len(ds.targets()) == 30

    def test_empty_dataset_raises(self, space):
        with pytest.raises(TrainingError):
            PerformanceDataset([], PARAMS).features()

    def test_feature_names(self, space):
        ds = make_dataset(space)
        assert ds.feature_names[0] == "read_ratio"
        assert len(ds.feature_names) == 1 + len(PARAMS)


class TestSplits:
    def test_config_split_is_disjoint(self, space):
        ds = make_dataset(space)
        train, test = ds.split_by_configuration(0.25, np.random.default_rng(1))
        train_cfgs = set(train.distinct_configurations())
        test_cfgs = set(test.distinct_configurations())
        assert train_cfgs.isdisjoint(test_cfgs)
        assert len(train) + len(test) == len(ds)

    def test_workload_split_is_disjoint(self, space):
        ds = make_dataset(space)
        train, test = ds.split_by_workload(0.25, np.random.default_rng(1))
        assert set(train.distinct_read_ratios()).isdisjoint(test.distinct_read_ratios())

    def test_split_fraction_validated(self, space):
        ds = make_dataset(space)
        with pytest.raises(TrainingError):
            ds.split_by_configuration(0.0, np.random.default_rng(0))

    def test_split_leaves_training_data(self, space):
        ds = make_dataset(space)
        train, _ = ds.split_by_configuration(0.9, np.random.default_rng(0))
        assert len(train) > 0

    def test_take_first_n(self, space):
        ds = make_dataset(space)
        assert len(ds.take(7)) == 7

    def test_take_random(self, space):
        ds = make_dataset(space)
        sub = ds.take(10, np.random.default_rng(3))
        assert len(sub) == 10

    def test_take_too_many(self, space):
        ds = make_dataset(space)
        with pytest.raises(TrainingError):
            ds.take(1000)


class TestPersistence:
    def test_json_round_trip(self, space):
        ds = make_dataset(space, n_configs=3, n_workloads=3)
        text = ds.to_json()
        back = PerformanceDataset.from_json(text, space)
        assert len(back) == len(ds)
        assert np.allclose(back.features(), ds.features())
        assert np.allclose(back.targets(), ds.targets())

    def test_artifact_round_trip(self, space, tmp_path):
        """save_dataset / load_dataset: the checksummed file reloads to
        the same dataset, byte for byte in its JSON form."""
        ds = make_dataset(space, n_configs=3, n_workloads=3)
        path = tmp_path / "dataset.json"
        save_dataset(ds, path)
        assert load_dataset(path, space).to_json() == ds.to_json()

    def test_sample_from_result(self, space):
        from repro.bench.metrics import BenchmarkResult

        result = BenchmarkResult(
            workload=WorkloadSpec(read_ratio=0.4),
            configuration=space.default_configuration(),
            mean_throughput=5555.0,
            duration_seconds=10.0,
        )
        sample = PerformanceSample.from_result(result)
        assert sample.throughput == 5555.0
        assert sample.workload.read_ratio == 0.4

import numpy as np
import pytest

from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.surrogate import SurrogateModel
from repro.errors import TrainingError
from repro.ml.ensemble import EnsembleConfig
from repro.workload.spec import WorkloadSpec

PARAMS = list(CASSANDRA_KEY_PARAMETERS)


@pytest.fixture(scope="module")
def space():
    return cassandra_space()


@pytest.fixture(scope="module")
def dataset(space):
    """A synthetic dataset with a known smooth response."""
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(12):
        config = space.sample_configuration(rng, PARAMS)
        vec = config.to_vector(PARAMS)
        for rr in np.linspace(0, 1, 6):
            target = 50_000 + 40_000 * (1 - rr) * vec[1] + 20_000 * rr * vec[2]
            samples.append(
                PerformanceSample(
                    workload=WorkloadSpec(read_ratio=float(rr)),
                    configuration=config,
                    throughput=float(target),
                )
            )
    return PerformanceDataset(samples, PARAMS)


@pytest.fixture(scope="module")
def fitted(space, dataset):
    model = SurrogateModel(space, PARAMS, EnsembleConfig(n_networks=4, max_epochs=80))
    return model.fit(dataset, seed=1)


class TestSurrogateModel:
    def test_needs_features(self, space):
        with pytest.raises(TrainingError):
            SurrogateModel(space, [])

    def test_feature_names(self, space):
        model = SurrogateModel(space, PARAMS)
        assert model.feature_names[0] == "read_ratio"

    def test_fit_rejects_mismatched_dataset(self, space, dataset):
        model = SurrogateModel(space, PARAMS[:2])
        with pytest.raises(TrainingError):
            model.fit(dataset)

    def test_predict_before_fit(self, space):
        model = SurrogateModel(space, PARAMS)
        with pytest.raises(TrainingError):
            model.predict(0.5, space.default_configuration())

    def test_learns_training_surface(self, fitted, dataset):
        preds = fitted.predict_dataset(dataset)
        err = np.abs(preds - dataset.targets()) / dataset.targets()
        assert err.mean() < 0.05

    def test_predict_scalar(self, fitted, space):
        out = fitted.predict(0.5, space.default_configuration())
        # A python float, not a leaked np.float64 (itself a float subclass).
        assert type(out) is float
        assert out > 0

    def test_encode_matches_dataset_features(self, fitted, dataset):
        sample = dataset[0]
        row = fitted.encode(sample.workload.read_ratio, sample.configuration)
        assert np.allclose(row, dataset.features()[0])

    def test_query_stats_tracked(self, fitted, space):
        before = fitted.stats.n_queries
        fitted.predict(0.3, space.default_configuration())
        assert fitted.stats.n_queries == before + 1
        assert fitted.stats.seconds_per_query >= 0

    def test_query_width_checked_at_the_boundary(self, fitted):
        """Rows of another width, or of more than two axes, are refused
        by the one check every query passes, naming the width it expects,
        and the refused query is not counted."""
        before = fitted.stats.n_queries
        for rows in (np.zeros((3, 5)), np.zeros(7), np.zeros((2, 3, 6)), np.float64(0.5)):
            with pytest.raises(TrainingError, match="of 6 features"):
                fitted.predict_features(rows)
            with pytest.raises(TrainingError, match="of 6 features"):
                fitted.predict_mean_std(rows)
        with pytest.raises(TrainingError, match="of 6 features"):
            fitted.ensemble.predict(np.zeros((4, 7)))
        assert fitted.stats.n_queries == before

    def test_fast_queries(self, fitted, space):
        """§4.8: the surrogate answers in ~tens of microseconds, enabling
        thousands of evaluations per second; allow generous slack for
        the Python implementation."""
        import time

        rows = np.tile(fitted.encode(0.5, space.default_configuration()), (1000, 1))
        t0 = time.perf_counter()
        fitted.predict_features(rows)
        per_query = (time.perf_counter() - t0) / 1000
        assert per_query < 2e-3

"""The surrogate performance model (paper §3.6).

``AOPS = fnet(RR, CM, CW, FCZ, MT, CC)`` — a Bayesian-regularized DNN
ensemble that predicts mean throughput for any (workload, configuration)
pair, standing in for a 5-minute benchmark at ~tens of microseconds per
query.  Wraps :class:`~repro.ml.ensemble.NetworkEnsemble` with the
feature encoding shared with the dataset and the GA.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.bench.dataset import PerformanceDataset
from repro.config.space import Configuration, ConfigurationSpace
from repro.errors import TrainingError
from repro.ml.ensemble import EnsembleConfig, NetworkEnsemble
from repro.runtime.backend import ExecutionBackend
from repro.sim.rng import SeedLike


@dataclass
class SurrogateStats:
    """Bookkeeping for the §4.8 search-speed accounting."""

    n_training_samples: int = 0
    fit_wall_seconds: float = 0.0
    n_queries: int = 0
    query_wall_seconds: float = 0.0

    @property
    def seconds_per_query(self) -> float:
        if self.n_queries == 0:
            return 0.0
        return self.query_wall_seconds / self.n_queries


class SurrogateModel:
    """fnet: (read ratio, key-parameter values) -> predicted AOPS."""

    def __init__(
        self,
        space: ConfigurationSpace,
        feature_parameters: Sequence[str],
        ensemble_config: Optional[EnsembleConfig] = None,
    ):
        if not feature_parameters:
            raise TrainingError("surrogate needs at least one parameter feature")
        self.space = space
        self.feature_parameters = tuple(feature_parameters)
        self.ensemble = NetworkEnsemble(ensemble_config)
        self.stats = SurrogateStats()

    @property
    def is_fitted(self) -> bool:
        return self.ensemble.is_fitted

    @property
    def feature_names(self) -> list:
        return ["read_ratio", *self.feature_parameters]

    # -- training --------------------------------------------------------------

    def fit(
        self,
        dataset: PerformanceDataset,
        seed: SeedLike = 0,
        backend: Optional[ExecutionBackend] = None,
    ) -> "SurrogateModel":
        """Train on a performance dataset (features must match).

        ``backend`` fans per-member training out through an
        :class:`~repro.runtime.backend.ExecutionBackend` (serial when
        omitted); predictions are backend-independent.
        """
        if tuple(dataset.feature_parameters) != self.feature_parameters:
            raise TrainingError(
                "dataset feature parameters "
                f"{dataset.feature_parameters} != surrogate's {self.feature_parameters}"
            )
        t0 = time.perf_counter()
        self.ensemble.fit(
            dataset.features(),
            dataset.targets(),
            seed=seed,
            backend=backend,
        )
        self.stats.fit_wall_seconds = time.perf_counter() - t0
        self.stats.n_training_samples = len(dataset)
        return self

    # -- prediction ----------------------------------------------------------------

    def encode(self, read_ratio: float, config: Configuration) -> np.ndarray:
        """Feature row for one (workload, configuration) pair."""
        return np.concatenate(
            [[read_ratio], config.to_vector(self.feature_parameters)]
        )

    def predict(self, read_ratio: float, config: Configuration) -> float:
        """Predicted AOPS for a concrete configuration."""
        return float(self.predict_features(self.encode(read_ratio, config)[None, :])[0])

    def predict_features(self, rows: np.ndarray) -> np.ndarray:
        """Predict from raw feature rows (the GA's hot path)."""
        t0 = time.perf_counter()
        out = self.ensemble._forward(rows, spread=False)
        self.stats.query_wall_seconds += time.perf_counter() - t0
        self.stats.n_queries += len(out)
        return out

    def predict_mean_std(self, rows: np.ndarray):
        """Mean prediction and ensemble spread in one member walk.

        The uncertainty-penalized GA fitness needs both; calling
        ``predict_features`` + ``ensemble.predict_std`` separately would
        run every member network twice on the same rows.  Returns
        ``(mean, std)``, each ``(n,)``.
        """
        t0 = time.perf_counter()
        mean, std = self.ensemble._forward(rows, spread=True)
        self.stats.query_wall_seconds += time.perf_counter() - t0
        self.stats.n_queries += len(mean)
        return mean, std

    def predict_dataset(self, dataset: PerformanceDataset) -> np.ndarray:
        """Predictions for every sample of a dataset (validation path)."""
        if tuple(dataset.feature_parameters) != self.feature_parameters:
            raise TrainingError("dataset/surrogate feature mismatch")
        return self.predict_features(dataset.features())

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.forecast import MarkovRegimeForecaster
from repro.workload.mgrast import MGRastTraceGenerator


def one_step_ahead(forecaster, rr_series):
    """One-step-ahead forecasts: entry ``i`` is made after observing
    windows ``0..i-1`` only; entry 0 is the forecaster's prior."""
    predictions = []
    for rr in rr_series:
        predictions.append(forecaster.predict())
        forecaster.update(float(rr))
    return predictions


class TestMarkovRegime:
    def test_prior_is_half(self):
        assert MarkovRegimeForecaster().predict() == 0.5

    def test_learns_persistence(self):
        f = MarkovRegimeForecaster(n_bins=4)
        for _ in range(30):
            f.update(0.9)
        assert f.predict() > 0.7

    def test_learns_alternation(self):
        """A strictly alternating regime should be predicted as a switch."""
        f = MarkovRegimeForecaster(n_bins=2, smoothing=0.1)
        for _ in range(40):
            f.update(0.9)
            f.update(0.1)
        # Last observation was 0.1, so the chain should predict high RR.
        assert f.predict() > 0.6
        f.update(0.9)
        assert f.predict() < 0.4

    def test_predictions_bounded(self):
        rng = np.random.default_rng(0)
        f = MarkovRegimeForecaster()
        for _ in range(100):
            f.update(float(rng.random()))
            assert 0.0 <= f.predict() <= 1.0

    def test_validates_input(self):
        with pytest.raises(WorkloadError):
            MarkovRegimeForecaster().update(1.5)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            MarkovRegimeForecaster(n_bins=1)
        with pytest.raises(WorkloadError):
            MarkovRegimeForecaster(smoothing=0.0)


class TestForecastSeries:
    def test_never_sees_future(self):
        """Prediction for window i cannot depend on windows >= i."""
        series = np.array([0.2, 0.4, 0.6, 0.8])
        preds_full = one_step_ahead(MarkovRegimeForecaster(), series)
        preds_prefix = one_step_ahead(MarkovRegimeForecaster(), series[:2])
        assert preds_full[:2] == preds_prefix

    def test_markov_beats_last_value_on_mgrast(self):
        """On the regime-switching MG-RAST pattern, the Markov forecaster
        should at least match naive persistence (it subsumes it)."""
        series = MGRastTraceGenerator(seed=4).read_ratio_series(4 * 24 * 3600)
        naive = [0.5, *series[:-1]]  # persistence: the last window's RR
        markov = one_step_ahead(MarkovRegimeForecaster(n_bins=5), series)
        mae_naive = float(np.mean(np.abs(np.array(naive) - series)))
        mae_markov = float(np.mean(np.abs(np.array(markov) - series)))
        assert mae_markov < mae_naive * 1.15

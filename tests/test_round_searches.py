"""The serve campaign's search batch: ``Rafiki.prefetch``.

Before round 0 the scheduler hands ``rafiki.prefetch`` every tuned
tenant's series, and every cold regime is searched up front in
row-bounded lockstep GAs.  Whatever a caller can see must be what the
same campaign gives with a no-op ``prefetch`` (every miss searching on
the spot): per-tenant results, cache hits, misses and evictions, the
cache's entries, the named seed-stream counters and the whole event log
— serial or sharded, with faults, guards, hysteresis, and a surrogate
or GA changed mid-campaign.
"""

import importlib.util
import pickle
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core import rafiki as rafiki_module
from repro.core.policies import (
    ForecastPolicy,
    HysteresisPolicy,
    OraclePolicy,
    ReactivePolicy,
)
from repro.core.rafiki import Rafiki
from repro.core.search import ConfigurationOptimizer
from repro.core.surrogate import SurrogateModel
from repro.datastore import CassandraLike
from repro.faults import ActuationFault, FaultPlan, TransientFault
from repro.middleware import GuardSpec, MiddlewareScheduler, ReconcileSpec, SloSpec, TenantSpec
from repro.ml.ensemble import EnsembleConfig
from repro.runtime import EventBus
from repro.runtime.backend import SerialBackend
from repro.workload.spec import WorkloadSpec

PARAMS = list(CASSANDRA_KEY_PARAMETERS)
WORKLOAD = WorkloadSpec(read_ratio=0.5, n_keys=100_000)


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def surrogate():
    space = cassandra_space()
    rng = np.random.default_rng(5)
    samples = []
    for _ in range(6):
        config = space.sample_configuration(rng, PARAMS)
        vec = config.to_vector(PARAMS)
        for rr in (0.0, 0.5, 1.0):
            samples.append(
                PerformanceSample(
                    workload=WorkloadSpec(read_ratio=rr),
                    configuration=config,
                    throughput=50_000 + 20_000 * vec[0] - 9_000 * vec[3] + 4_000 * rr,
                )
            )
    model = SurrogateModel(space, PARAMS, EnsembleConfig(n_networks=2, max_epochs=15))
    return model.fit(PerformanceDataset(samples, PARAMS), seed=2)


def make_rafiki(cassandra, surrogate, **kwargs):
    rafiki = Rafiki(cassandra, surrogate, PARAMS, seed=0, **kwargs)
    rafiki.optimizer.population_size = 8
    rafiki.optimizer.generations = 3
    return rafiki


def spec(tenant_id, series, seed=0, **kwargs):
    kwargs.setdefault("window_seconds", 30)
    kwargs.setdefault("load", False)
    kwargs.setdefault("policy", OraclePolicy())
    return TenantSpec(
        tenant_id=tenant_id, rr_series=series, base_workload=WORKLOAD, seed=seed, **kwargs
    )


class Spy:
    """Counts a rafiki's live searches, the size of every lockstep, and
    what its campaign prefetched and left; picklable, so a sharded
    round's rafiki blob takes it along."""

    def __init__(self, rafiki, prefetch):
        self.rafiki, self.prefetch = rafiki, prefetch
        self.live_searches, self.prefetched, self.unconsumed = 0, [], []
        self.locksteps = []
        rafiki.optimizer.optimize = self.optimize
        rafiki.optimizer.optimize_many = self.optimize_many
        rafiki.prefetch = self.round

    def optimize(self, *args, **kwargs):
        self.live_searches += 1
        return ConfigurationOptimizer.optimize(self.rafiki.optimizer, *args, **kwargs)

    def optimize_many(self, read_ratios, *args, **kwargs):
        optimizer = self.rafiki.optimizer
        rows = len(read_ratios) * (optimizer.population_size + 1)
        assert len(read_ratios) == 1 or rows <= rafiki_module.PREFETCH_ROWS
        self.locksteps.append(len(read_ratios))
        return ConfigurationOptimizer.optimize_many(optimizer, read_ratios, *args, **kwargs)

    @contextmanager
    def round(self, read_ratios):
        if not self.prefetch:  # every miss searches on the spot
            yield
            return
        with Rafiki.prefetch(self.rafiki, read_ratios):
            self.prefetched.extend(self.rafiki._prefetched)
            yield
            self.unconsumed.extend(self.rafiki._prefetched)


class Campaign:
    """One scheduler run on a fresh rafiki, with the real ``prefetch`` or
    a no-op one; records what a caller can see of it.  ``on_window(w,
    rafiki)`` runs after each window round, on the campaign's own copy
    of the surrogate."""

    def __init__(
        self, cassandra, surrogate, specs, prefetch=True, backend=None,
        rafiki_kwargs=None, on_window=None, **sched_kwargs
    ):
        events = EventBus()
        self.log = []
        events.subscribe(self.log.append)
        rafiki = make_rafiki(
            cassandra, pickle.loads(pickle.dumps(surrogate)), **(rafiki_kwargs or {})
        )
        self.spy = Spy(rafiki, prefetch)
        if on_window is not None:
            events.subscribe(
                lambda e: on_window(e.payload["window"], rafiki), topic="scheduler.window"
            )
        scheduler = MiddlewareScheduler(
            cassandra, rafiki, events=events, backend=backend, **sched_kwargs
        )
        for s in specs:
            scheduler.add_tenant(s)
        results = scheduler.run()
        self.summary = {
            tid: [
                (
                    e.window_index, e.read_ratio, e.reconfigured, e.mean_throughput,
                    e.rolled_back, e.degraded, e.shed, e.quarantined,
                    str(e.configuration),
                )
                for e in r.events
            ]
            for tid, r in results.items()
        }
        self.events = [(e.topic, e.message, repr(sorted(e.payload.items()))) for e in self.log]
        stats = rafiki.cache.stats
        self.state = (
            (stats.hits, stats.misses, stats.evictions),
            [
                (key, r.predicted_throughput, str(r.configuration), r.evaluations, r.history)
                for key, r in rafiki.cache._entries.items()
            ],
            dict(rafiki.seeds._counts),
        )
        self.rafiki = rafiki

    def seen(self):
        return self.summary, self.events, self.state


def assert_same_round(cassandra, surrogate, specs_fn, **kwargs):
    """The campaign with prefetch equals it with a no-op prefetch;
    returns the prefetching one."""
    batched = Campaign(cassandra, surrogate, specs_fn(), **kwargs)
    alone = Campaign(cassandra, surrogate, specs_fn(), prefetch=False, **kwargs)
    assert batched.seen() == alone.seen()
    assert batched.spy.live_searches < alone.spy.live_searches
    return batched


def search_fleet():
    """``serve_search`` in small: two tenants, every window a new regime."""
    grid = np.linspace(0.02, 0.98, 12)
    np.random.default_rng(3).shuffle(grid)
    return [
        spec(f"t{t}", [float(rr) for rr in grid[t * 6:(t + 1) * 6]], seed=t)
        for t in range(2)
    ]


def guarded_fleet():
    """The ``examples/tenants.toml`` fleet in small — SLO, forecast, a
    rolling 3-node ring with drift repair, a canaried and guarded tenant
    — plus a reactive one, under hysteresis, admission control and
    faults: a three-window search outage opens the guarded tenant's
    breaker while hints for it are still searched.  A 0.01 cache grid
    keeps the regimes apart."""
    day = np.clip(0.5 + 0.45 * np.sin(np.arange(14) * 1.3), 0.0, 1.0)
    series = [float(rr) for rr in day]
    hysteresis = lambda inner: HysteresisPolicy(inner, min_change=0.08)  # noqa: E731
    return [
        spec("assembly", series, seed=1, policy=hysteresis(OraclePolicy()),
             slo=SloSpec(throughput_floor=40_000, window_span=4, error_budget=0.25)),
        spec("annotation", series[3:] + series[:3], seed=2,
             policy=hysteresis(ForecastPolicy())),
        spec("archive", series[5:] + series[:5], seed=3, n_nodes=3,
             replication_factor=2, restart_policy="rolling",
             restart_seconds_per_node=5, policy=hysteresis(OraclePolicy()),
             reconcile=ReconcileSpec(max_repairs=2, span=4),
             fault_plan=FaultPlan(actuation_faults=(ActuationFault(2, 1),))),
        # Regimes of its own, so the outage's hints are nobody else's.
        spec("burst", [round((0.037 + 0.083 * i) % 1.0, 3) for i in range(14)],
             seed=4, priority=5,
             canary_margin=0.2, canary_std_factor=0.5, policy=hysteresis(OraclePolicy()),
             guard=GuardSpec(breaker_failures=2, breaker_cooldown=3),
             fault_plan=FaultPlan(
                 transient_faults=tuple(
                     TransientFault("search", w, failures=3) for w in (4, 5, 6)
                 ) + (TransientFault("push", 9, failures=1),)
             )),
        spec("lagging", series[9:] + series[:9], seed=5, policy=ReactivePolicy()),
    ]


class TestRoundEqualsSearchesAlone:
    def test_search_fleet(self, cassandra, surrogate):
        run = assert_same_round(cassandra, surrogate, search_fleet)
        assert run.spy.live_searches == 0  # every miss took its round's result
        assert run.spy.unconsumed == []

    def test_guarded_fleet_with_faults(self, cassandra, surrogate):
        run = assert_same_round(
            cassandra, surrogate, guarded_fleet, cluster_capacity=160_000.0,
            rafiki_kwargs=dict(rr_cache_resolution=0.01),
        )
        assert any(e.topic.endswith("guard.shed") for e in run.log)
        assert any(e.topic.endswith("controller.degraded") for e in run.log)
        # Regimes only the outage, a damped change or a shed window saw
        # were searched and never taken.
        assert run.spy.unconsumed

    def test_capacity_one_revisits_a_key_on_its_next_stream(self, cassandra, surrogate):
        """K1, K2, K1 in one round on a one-entry cache: K1 is searched
        once ahead, taken by the first tenant, evicted by K2, and the
        third tenant's miss searches K1 on the stream after it."""
        specs = lambda: [  # noqa: E731
            spec("a", [0.30, 0.70], seed=1),
            spec("b", [0.60, 0.70], seed=2),
            spec("c", [0.30, 0.20], seed=3),
        ]
        run = assert_same_round(
            cassandra, surrogate, specs, rafiki_kwargs=dict(cache_capacity=1)
        )
        assert run.rafiki.seeds._counts["search-rr0.3"] == 2
        assert run.rafiki.cache.stats.evictions > 0

    def test_sharded_equals_serial(self, cassandra, surrogate):
        serial = Campaign(cassandra, surrogate, guarded_fleet(), cluster_capacity=160_000.0)
        sharded = Campaign(
            cassandra, surrogate, guarded_fleet(), cluster_capacity=160_000.0,
            backend=SerialBackend(),
        )
        assert sharded.seen() == serial.seen()
        # The parent prefetches and decides: the same searches, ahead or not.
        assert sharded.spy.prefetched == serial.spy.prefetched != []
        assert sharded.spy.live_searches == serial.spy.live_searches


class TestInputsMovedMidCampaign:
    """A prefetched result is taken only while the surrogate's forward
    plan and the GA's sizes are those it was searched with."""

    def test_ensemble_retrained_after_round_1(self, cassandra, surrogate):
        def retrain(w, rafiki):
            if w == 1:
                for net in rafiki.surrogate.ensemble.networks:
                    net.weights[0] = net.weights[0] * 1.001

        run = assert_same_round(cassandra, surrogate, search_fleet, on_window=retrain)
        # Rounds 2-5 searched on the spot, with the retrained ensemble ...
        assert run.spy.live_searches == 2 * 4
        # ... which moved their picks.
        untouched = Campaign(cassandra, surrogate, search_fleet())
        assert run.state[1][4:] != untouched.state[1][4:]

    @pytest.mark.parametrize(
        "attr, value",
        [("generations", 4), ("population_size", 10), ("uncertainty_penalty", 0.5)],
    )
    def test_ga_changed_after_round_1(self, cassandra, surrogate, attr, value):
        def change(w, rafiki):
            if w == 1:
                setattr(rafiki.optimizer, attr, value)

        run = assert_same_round(cassandra, surrogate, search_fleet, on_window=change)
        assert run.spy.live_searches == 2 * 4


class TestRowBound:
    def test_more_cold_keys_than_one_lockstep_holds(
        self, cassandra, surrogate, monkeypatch
    ):
        """Twelve cold keys at 9 rows a search under a 40-row bound: three
        locksteps of four searches, every one taken."""
        monkeypatch.setattr(rafiki_module, "PREFETCH_ROWS", 40)
        run = assert_same_round(cassandra, surrogate, search_fleet)
        assert run.spy.locksteps == [4, 4, 4]
        assert run.spy.live_searches == 0

    def test_a_population_over_the_bound_searches_one_at_a_time(
        self, cassandra, surrogate, monkeypatch
    ):
        monkeypatch.setattr(rafiki_module, "PREFETCH_ROWS", 5)
        run = assert_same_round(cassandra, surrogate, search_fleet)
        assert run.spy.locksteps == [1] * 12


E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def serve_workloads():
    """The benchmark's serve workloads, loaded read-only from their file
    (it imports ``calibrate`` from its directory)."""
    sys.path.insert(0, str(E2E))
    try:
        spec = importlib.util.spec_from_file_location(
            "e2e_serve_workloads", E2E / "workloads" / "serve.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(E2E))
    return module


class TestBenchmarkFleets:
    """The contract benchmark's own fleets, at its smoke size, on a cold
    rafiki with a small GA."""

    def test_serve_search_fleet(self, cassandra, surrogate, serve_workloads):
        workload = serve_workloads.ServeSearch(2017, "smoke")
        run = assert_same_round(
            cassandra, surrogate, workload._specs,
            rafiki_kwargs=dict(rr_cache_resolution=0.001, cache_capacity=512),
        )
        assert run.spy.live_searches == 0
        assert len(run.spy.prefetched) == 2 * 12

    def test_serve_steady_fleet_on_a_cold_cache(self, cassandra, surrogate, serve_workloads):
        """``examples/tenants.toml`` with the benchmark's fault plans (a
        six-window search outage among them) and admission control."""
        workload = serve_workloads.ServeSteady(7, "smoke")
        assert_same_round(
            cassandra, surrogate, workload._specs,
            cluster_capacity=float(workload.CLUSTER_CAPACITY),
        )


class TestPrefetch:
    def test_counts_caches_and_takes_nothing_by_itself(self, cassandra, surrogate):
        rafiki = make_rafiki(cassandra, surrogate)
        rafiki.recommend(0.4)
        before = (rafiki.cache.stats, list(rafiki.cache._entries), dict(rafiki.seeds._counts))
        stats = (rafiki.cache.stats.hits, rafiki.cache.stats.misses, rafiki.cache.stats.evictions)
        with rafiki.prefetch([0.4, 0.55, None, 1.5, float("nan"), 0.55]):
            assert sorted(rafiki._prefetched) == [0.55]
            assert pickle.loads(pickle.dumps(rafiki))._prefetched == {}
        assert rafiki._prefetched == {}
        assert (rafiki.cache.stats.hits, rafiki.cache.stats.misses,
                rafiki.cache.stats.evictions) == stats
        assert (list(rafiki.cache._entries), dict(rafiki.seeds._counts)) == before[1:]

    def test_taken_result_is_the_search_alone(self, cassandra, surrogate):
        rafiki = make_rafiki(cassandra, surrogate)
        want = make_rafiki(cassandra, surrogate).recommend(0.55)
        with rafiki.prefetch([0.55, 0.2]):
            got = rafiki.recommend(0.55)
        assert (got.predicted_throughput, got.configuration, got.history) == (
            want.predicted_throughput, want.configuration, want.history
        )
        assert rafiki.seeds._counts == {"search-rr0.55": 1}

    def test_a_moved_stream_is_searched_again(self, cassandra, surrogate):
        """A result is taken only on the stream index it was searched on."""
        rafiki, alone = make_rafiki(cassandra, surrogate), make_rafiki(cassandra, surrogate)
        with rafiki.prefetch([0.55]):
            rafiki.seeds.stream("search-rr0.55")
            got = rafiki.recommend(0.55)
        alone.seeds.stream("search-rr0.55")
        want = alone.recommend(0.55)
        assert (got.predicted_throughput, got.configuration, got.history) == (
            want.predicted_throughput, want.configuration, want.history
        )
        assert rafiki.seeds._counts == alone.seeds._counts == {"search-rr0.55": 2}

"""Sharded-vs-serial equivalence of the multi-tenant serve loop.

The scheduler's ``backend=`` fan-out must be *bit-identical* to the
inline loop: same per-tenant results, same event log in registration
order, and — for a real :class:`~repro.core.rafiki.Rafiki` — the same
shared-cache statistics, LRU order, and named-seed-stream counters, at
any cache capacity and with every session feature on at once.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.policies import OraclePolicy, ReactivePolicy
from repro.core.rafiki import Rafiki
from repro.core.search import OptimizationResult
from repro.core.surrogate import SurrogateModel
from repro.datastore import CassandraLike
from repro.faults import ActuationFault, FaultPlan, StaleRecovery
from repro.middleware import (
    GuardSpec,
    MiddlewareScheduler,
    ReconcileSpec,
    SloSpec,
    TenantSpec,
)
from repro.ml.ensemble import EnsembleConfig
from repro.runtime import EventBus
from repro.runtime.backend import ProcessPoolBackend, SerialBackend
from repro.workload.spec import WorkloadSpec

PARAMS = list(CASSANDRA_KEY_PARAMETERS)
WORKLOAD = WorkloadSpec(read_ratio=0.5, n_keys=100_000)


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def tiny_surrogate():
    """A real (if crude) surrogate so recommend() runs a real search."""
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
                    throughput=50_000 + 20_000 * vec[0] + 4_000 * rr,
                )
            )
    model = SurrogateModel(space, PARAMS, EnsembleConfig(n_networks=2, max_epochs=15))
    return model.fit(PerformanceDataset(samples, PARAMS), seed=2)


class CachingFakeRafiki:
    """Duck-typed recommender: the shared rafiki needs no real cache."""

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
        result = OptimizationResult(
            configuration=self.datastore.default_configuration(),
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


def make_rafiki(cassandra, surrogate, **kwargs):
    rafiki = Rafiki(
        cassandra, surrogate, PARAMS, seed=0, rr_cache_resolution=0.01, **kwargs
    )
    rafiki.optimizer.population_size = 8
    rafiki.optimizer.generations = 2
    return rafiki


def rafiki_state(rafiki):
    """The shared state a serial and a sharded run must agree on bitwise:
    cache statistics, LRU order and contents, seed-stream counters."""
    stats = rafiki.cache.stats
    return (
        (stats.hits, stats.misses, stats.evictions),
        [
            (key, result.predicted_throughput, str(result.configuration))
            for key, result in rafiki.cache._entries.items()
        ],
        dict(rafiki.seeds._counts),
    )


def run_campaign(
    cassandra, specs, backend=None, rafiki=None, on_window=None, **sched_kwargs
):
    """(per-tenant summary, full event log, scheduler) of one campaign."""
    events = EventBus()
    log = []
    events.subscribe(log.append)
    if on_window is not None:
        events.subscribe(on_window, topic="scheduler.window")
    rafiki = rafiki if rafiki is not None else CachingFakeRafiki(cassandra)
    scheduler = MiddlewareScheduler(
        cassandra, rafiki, events=events, backend=backend, **sched_kwargs
    )
    for s in specs:
        scheduler.add_tenant(s)
    results = scheduler.run()
    summary = {
        tid: [
            (
                e.window_index,
                e.read_ratio,
                e.reconfigured,
                e.mean_throughput,
                e.rolled_back,
                e.degraded,
                e.shed,
                e.quarantined,
                str(e.configuration),
            )
            for e in r.events
        ]
        for tid, r in results.items()
    }
    # Every event, with no exempt topic, must match serial bitwise.
    log_view = [(e.topic, e.message, repr(sorted(e.payload.items()))) for e in log]
    return summary, log_view, scheduler


SPECS = lambda: [spec(f"t{i}", [0.2, 0.9, 0.4], seed=i) for i in range(4)]  # noqa: E731


class TestShardedEqualsSerial:
    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ProcessPoolBackend(workers=2)],
        ids=["serial-backend", "process-pool"],
    )
    def test_results_and_events_bit_identical(self, cassandra, backend_factory):
        ref_summary, ref_log, ref = run_campaign(cassandra, SPECS())
        summary, log, sharded = run_campaign(
            cassandra, SPECS(), backend=backend_factory()
        )
        assert summary == ref_summary
        assert log == ref_log
        # The parent decides on the shared fake, so its cache
        # statistics evolve exactly as serial.
        assert (sharded.rafiki.hits, sharded.rafiki.misses) == (
            ref.rafiki.hits,
            ref.rafiki.misses,
        )

    def test_workers_arg_resolves_to_sharded_path(self, cassandra):
        ref_summary, ref_log, _ = run_campaign(cassandra, SPECS())
        events = EventBus()
        log = []
        events.subscribe(log.append)
        scheduler = MiddlewareScheduler(
            cassandra, CachingFakeRafiki(cassandra), events=events, workers=2
        )
        assert scheduler.backend is not None
        for s in SPECS():
            scheduler.add_tenant(s)
        results = scheduler.run()
        assert {
            tid: [e.mean_throughput for e in r.events] for tid, r in results.items()
        } == {tid: [e[3] for e in evs] for tid, evs in ref_summary.items()}
        assert [(e.topic, e.message) for e in log] == [
            (topic, message) for topic, message, _ in ref_log
        ]
        scheduler.close()

    def test_workers_one_keeps_legacy_serial_loop(self, cassandra):
        scheduler = MiddlewareScheduler(
            cassandra, CachingFakeRafiki(cassandra), workers=1
        )
        assert scheduler.backend is None

    def test_staggered_series_lengths(self, cassandra):
        """Tenants dropping out mid-campaign shard identically."""
        specs = [
            spec("long", [0.2, 0.8, 0.3, 0.6], seed=1),
            spec("short", [0.5], seed=2),
            spec("mid", [0.7, 0.1], seed=3),
        ]
        ref = run_campaign(cassandra, list(specs))[:2]
        sharded = run_campaign(
            cassandra, list(specs), backend=ProcessPoolBackend(workers=2)
        )[:2]
        assert sharded == ref


class TestRealRafikiProtocol:
    def test_cache_lru_and_seed_streams_identical(self, cassandra, tiny_surrogate):
        """Shared cache stats, LRU order, and named seed-stream counters
        must match a serial run bitwise."""

        def campaign(backend):
            rafiki = Rafiki(
                cassandra, tiny_surrogate, PARAMS, seed=0, rr_cache_resolution=0.01
            )
            rafiki.optimizer.population_size = 8
            rafiki.optimizer.generations = 3
            # 0.62 repeats across tenants: one search, one cache entry
            # and one seed-stream draw, then hits.
            specs = [
                spec("a", [0.20, 0.62], seed=1, policy=OraclePolicy()),
                spec("b", [0.62, 0.80], seed=2, policy=OraclePolicy()),
                spec("c", [0.47, 0.62], seed=3, policy=OraclePolicy()),
            ]
            summary, log, _ = run_campaign(
                cassandra, specs, backend=backend, rafiki=rafiki
            )
            return summary, log, rafiki_state(rafiki)

        serial = campaign(None)
        sharded = campaign(ProcessPoolBackend(workers=2))
        assert sharded == serial


class TestRoundBlob:
    """Every sharded round ships the round-start rafiki as one fresh
    pickle, whatever happened to the ensemble or the pool since.  The
    workers' canaries read the surrogate from it."""

    SERIES = {"a": [0.30, 0.30, 0.55, 0.70], "b": [0.30, 0.40, 0.55, 0.80]}

    def campaign(self, cassandra, surrogate, backend=None, on_window=None):
        """(summary, event log, rafiki state, canary state per tenant);
        ``on_window(event, rafiki)`` runs after every round."""
        rafiki = make_rafiki(cassandra, surrogate)
        specs = [
            spec(
                tenant_id,
                series,
                seed=i + 1,
                policy=OraclePolicy(),
                canary_margin=0.05,
            )
            for i, (tenant_id, series) in enumerate(self.SERIES.items())
        ]
        hook = None if on_window is None else lambda e: on_window(e, rafiki)
        summary, log, scheduler = run_campaign(
            cassandra, specs, backend=backend, rafiki=rafiki, on_window=hook
        )
        canary = {
            tenant_id: (
                scheduler.session(tenant_id)._ratio_baseline,
                scheduler.session(tenant_id).result.rollback_count,
            )
            for tenant_id in self.SERIES
        }
        return summary, log, rafiki_state(rafiki), canary

    def test_ensemble_retrained_mid_run_reaches_the_workers(
        self, cassandra, tiny_surrogate
    ):
        def retrain_after_round_1(event, rafiki):
            if event.payload["window"] == 1:
                for net in rafiki.surrogate.ensemble.networks:
                    net.weights[0] = net.weights[0] * 1.001

        fresh = lambda: pickle.loads(pickle.dumps(tiny_surrogate))  # noqa: E731
        serial = self.campaign(cassandra, fresh(), on_window=retrain_after_round_1)
        # The retrain moves the searches and the canaries of rounds 2-3 ...
        untouched = self.campaign(cassandra, fresh())
        assert serial[2] != untouched[2]
        assert serial[3] != untouched[3]
        # ... and the workers' canaries predict with the retrained
        # ensemble too.
        with ProcessPoolBackend(workers=2) as backend:
            sharded = self.campaign(
                cassandra, fresh(), backend=backend, on_window=retrain_after_round_1
            )
        assert sharded == serial

    def test_pool_closed_between_rounds(self, cassandra, tiny_surrogate):
        backend = ProcessPoolBackend(workers=2)

        def close_after_round_1(event, rafiki):
            if event.payload["window"] == 1:
                backend.close()  # round 2 runs on fresh workers

        serial = self.campaign(cassandra, tiny_surrogate)
        sharded = self.campaign(
            cassandra, tiny_surrogate, backend=backend, on_window=close_after_round_1
        )
        backend.close()
        assert backend.pools_created == 2
        assert sharded == serial

    def test_state_report_counts_the_rounds_with_a_rafiki_tenant(
        self, cassandra, tiny_surrogate
    ):
        def serve(scheduler):
            scheduler.add_tenant(
                spec("tuned", [0.20, 0.60], seed=1, policy=OraclePolicy())
            )
            scheduler.add_tenant(spec("static", [0.5] * 4, seed=2, use_rafiki=False))
            scheduler.run()
            return scheduler.state_report()

        rafiki = make_rafiki(cassandra, tiny_surrogate)
        assert serve(MiddlewareScheduler(cassandra, rafiki)) is None
        rafiki = make_rafiki(cassandra, tiny_surrogate)
        with MiddlewareScheduler(cassandra, rafiki, workers=2) as scheduler:
            report = serve(scheduler)
        # Rounds 2-3 serve the static tenant alone: no blob.
        assert report["blob_ships"] == 2
        # One rafiki task per round carries the round's blob.
        assert report["payload_bytes"] == report["blob_bytes"] > 0
        # Exiting the context closed the scheduler-owned pool.
        assert scheduler.backend._executor is None

    def test_first_query_leaves_the_blob_unchanged(self, cassandra, tiny_surrogate):
        # A freshly loaded surrogate has built none of its derived
        # inference state yet; building it must not leak into what ships.
        surrogate = pickle.loads(pickle.dumps(tiny_surrogate))
        rafiki = make_rafiki(cassandra, surrogate)
        scheduler = MiddlewareScheduler(cassandra, rafiki, backend=SerialBackend())
        ensemble_pickle = pickle.dumps(surrogate.ensemble)
        blob_bytes = len(scheduler._rafiki_blob())
        surrogate.predict(0.5, cassandra.default_configuration())
        rafiki.predicted_mean_std(0.5, cassandra.default_configuration())
        assert pickle.dumps(surrogate.ensemble) == ensemble_pickle
        assert len(scheduler._rafiki_blob()) == blob_bytes


class TestAnyCacheCapacity:
    """The parent decides on the one shared cache, so evicting inside a
    round is no different from serial, down to a 1-entry cache."""

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_regimes_racing_a_small_cache(self, cassandra, tiny_surrogate, capacity):
        # Two oracle tenants race distinct regimes: every round evicts.
        def campaign(backend):
            rafiki = make_rafiki(cassandra, tiny_surrogate, cache_capacity=capacity)
            specs = [
                spec("a", [0.20, 0.60, 0.20], seed=1, policy=OraclePolicy()),
                spec("b", [0.80, 0.40, 0.60], seed=2, policy=OraclePolicy()),
            ]
            summary, log, _ = run_campaign(
                cassandra, specs, backend=backend, rafiki=rafiki
            )
            return summary, log, rafiki_state(rafiki)

        serial = campaign(None)
        assert serial[2][0][2] > 0          # the cache did evict
        assert campaign(ProcessPoolBackend(workers=2)) == serial

    def test_reactive_policy_evicting_the_current_regime(
        self, cassandra, tiny_surrogate
    ):
        # A reactive policy searches the *previous* window's regime:
        # window 2 searches 0.5 into a 1-entry cache holding 0.9.
        def campaign(backend):
            rafiki = make_rafiki(cassandra, tiny_surrogate, cache_capacity=1)
            summary, log, _ = run_campaign(
                cassandra,
                [spec("r", [0.9, 0.5, 0.9], seed=1, policy=ReactivePolicy())],
                backend=backend,
                rafiki=rafiki,
            )
            return summary, log, rafiki_state(rafiki)

        serial = campaign(None)
        assert serial[2][0][2] > 0
        assert campaign(SerialBackend()) == serial


class TestEveryFeatureOn:
    """Serial == sharded with every session feature on at once, under a
    generated fault plan plus partial pushes and a stale rejoin, and a
    shared cache too small for the fleet."""

    SERIES = [0.2, 0.7, 0.4, 0.9, 0.3, 0.8, 0.5, 0.1, 0.6, 0.35]

    def fleet(self):
        specs = []
        for i in range(3):
            plan = dataclasses.replace(
                FaultPlan.generate(
                    seed=40 + i,
                    n_windows=len(self.SERIES),
                    n_nodes=3,
                    slowdown_probability=0.1,
                    search_fault_probability=0.2,
                    push_fault_probability=0.2,
                ),
                actuation_faults=(
                    ActuationFault(1, i, repairs_blocked=1),
                    ActuationFault(5, (i + 1) % 3),
                ),
                stale_recoveries=(StaleRecovery(3, (i + 2) % 3, recover_window=6),),
            )
            specs.append(
                spec(
                    f"t{i}",
                    self.SERIES[i:] + self.SERIES[:i],
                    seed=i + 1,
                    n_nodes=3,
                    policy=OraclePolicy(),
                    fault_plan=plan,
                    restart_policy="rolling",
                    canary_margin=0.05,
                    slo=SloSpec(throughput_floor=40_000, window_span=4),
                    guard=GuardSpec(max_restarts=3, span=5),
                    reconcile=ReconcileSpec(max_repairs=1),
                    trace_phases=True,
                    priority=i,
                )
            )
        return specs

    def campaign(self, cassandra, tiny_surrogate, backend=None, capacity=None):
        rafiki = make_rafiki(cassandra, tiny_surrogate, cache_capacity=2)
        summary, log, _ = run_campaign(
            cassandra,
            self.fleet(),
            backend=backend,
            rafiki=rafiki,
            cluster_capacity=capacity,
        )
        return summary, log, rafiki_state(rafiki)

    def test_serial_equals_sharded(self, cassandra, tiny_surrogate):
        probe, _, _ = self.campaign(cassandra, tiny_surrogate)
        capacity = 0.7 * sum(windows[1][3] for windows in probe.values())
        serial = self.campaign(cassandra, tiny_surrogate, capacity=capacity)
        topics = {topic for topic, _, _ in serial[1]}
        for fired in (
            "guard.shed",
            "fault.injected",
            "controller.retry",
            "actuate.rolling_restart",
            "actuate.drift",
            "actuate.repair",
            "controller.rollback",
            "guard.bulkhead.exhausted",
            "guard.slo.violation",
            "session.phase",
        ):
            assert any(t.endswith(fired) for t in topics), fired
        assert serial[2][0][2] > 0          # the 2-entry cache evicted
        with ProcessPoolBackend(workers=2) as backend:
            sharded = self.campaign(
                cassandra, tiny_surrogate, backend=backend, capacity=capacity
            )
        assert sharded == serial

"""Sharded-vs-serial equivalence of the multi-tenant serve loop.

The scheduler's ``backend=`` fan-out must be *bit-identical* to the
legacy inline loop: same per-tenant results, same event log in
registration order, and — for a real :class:`~repro.core.rafiki.Rafiki`
— the same shared-cache statistics, LRU order, and named-seed-stream
counters, extending the PR 1 serial/parallel equivalence guarantee to
the serve path.
"""

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
from repro.datastore.adapter import SimulatedDatastoreAdapter
from repro.errors import DatastoreError, MiddlewareError, SearchError
from repro.middleware import MiddlewareScheduler, TenantSpec
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
    """Duck-typed recommender exercising the generic merge fallback."""

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
    return (
        (rafiki.cache.stats.hits, rafiki.cache.stats.misses),
        [
            (key, result.predicted_throughput, str(result.configuration))
            for key, result in rafiki.cache._entries.items()
        ],
        dict(rafiki.seeds._counts),
    )


def run_campaign(cassandra, specs, backend=None, rafiki=None, on_window=None):
    events = EventBus()
    log = []
    events.subscribe(log.append)
    if on_window is not None:
        events.subscribe(on_window, topic="scheduler.window")
    rafiki = rafiki if rafiki is not None else CachingFakeRafiki(cassandra)
    scheduler = MiddlewareScheduler(cassandra, rafiki, events=events, backend=backend)
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
                str(e.configuration),
            )
            for e in r.events
        ]
        for tid, r in results.items()
    }
    # Every event, with no exempt topic, must match serial bitwise.
    log_view = [(e.topic, e.message, repr(sorted(e.payload.items()))) for e in log]
    return summary, log_view, rafiki


SPECS = lambda: [spec(f"t{i}", [0.2, 0.9, 0.4], seed=i) for i in range(4)]  # noqa: E731


class TestShardedEqualsSerial:
    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ProcessPoolBackend(workers=2)],
        ids=["serial-backend", "process-pool"],
    )
    def test_results_and_events_bit_identical(self, cassandra, backend_factory):
        ref_summary, ref_log, ref_rafiki = run_campaign(cassandra, SPECS())
        summary, log, rafiki = run_campaign(
            cassandra, SPECS(), backend=backend_factory()
        )
        assert summary == ref_summary
        assert log == ref_log
        # The generic merge replays recommend() calls on the shared
        # fake, so its cache statistics evolve exactly as serial.
        assert (rafiki.hits, rafiki.misses) == (ref_rafiki.hits, ref_rafiki.misses)

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
        """The exact-merge path: shared cache stats, LRU order, and
        named seed-stream counters must match a serial run bitwise."""

        def campaign(backend):
            rafiki = Rafiki(
                cassandra, tiny_surrogate, PARAMS, seed=0, rr_cache_resolution=0.01
            )
            rafiki.optimizer.population_size = 8
            rafiki.optimizer.generations = 3
            # 0.62 repeats across tenants: worker-duplicated searches
            # must merge into ONE cache entry and ONE seed-stream burn.
            specs = [
                spec("a", [0.20, 0.62], seed=1, policy=OraclePolicy()),
                spec("b", [0.62, 0.80], seed=2, policy=OraclePolicy()),
                spec("c", [0.47, 0.62], seed=3, policy=OraclePolicy()),
            ]
            summary, log, rafiki = run_campaign(
                cassandra, specs, backend=backend, rafiki=rafiki
            )
            return (
                summary,
                log,
                (rafiki.cache.stats.hits, rafiki.cache.stats.misses),
                list(rafiki.cache._entries.keys()),
                dict(rafiki.seeds._counts),
            )

        serial = campaign(None)
        sharded = campaign(ProcessPoolBackend(workers=2))
        assert sharded == serial


class TestRoundBlob:
    """Every sharded round ships the round-start rafiki as one fresh
    pickle, whatever happened to the ensemble or the pool since."""

    SERIES = {"a": [0.30, 0.30, 0.55, 0.70], "b": [0.30, 0.40, 0.55, 0.80]}

    def campaign(self, cassandra, surrogate, backend=None, on_window=None):
        """(summary, event log, rafiki state); ``on_window(event, rafiki)``
        runs after every round."""
        rafiki = make_rafiki(cassandra, surrogate)
        specs = [
            spec(tenant_id, series, seed=i + 1, policy=OraclePolicy())
            for i, (tenant_id, series) in enumerate(self.SERIES.items())
        ]
        hook = None if on_window is None else lambda e: on_window(e, rafiki)
        summary, log, rafiki = run_campaign(
            cassandra, specs, backend=backend, rafiki=rafiki, on_window=hook
        )
        return summary, log, rafiki_state(rafiki)

    def test_ensemble_retrained_mid_run_reaches_the_workers(
        self, cassandra, tiny_surrogate
    ):
        def retrain_after_round_1(event, rafiki):
            if event.payload["window"] == 1:
                for net in rafiki.surrogate.ensemble.networks:
                    net.weights[0] = net.weights[0] * 1.001

        fresh = lambda: pickle.loads(pickle.dumps(tiny_surrogate))  # noqa: E731
        serial = self.campaign(cassandra, fresh(), on_window=retrain_after_round_1)
        # The retrain moves the searches of rounds 2-3 ...
        assert serial[2] != self.campaign(cassandra, fresh())[2]
        # ... and the workers search with the retrained ensemble too.
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
        rafiki.predicted_throughput(0.5, cassandra.default_configuration())
        rafiki.predicted_mean_std(0.5, cassandra.default_configuration())
        assert pickle.dumps(surrogate.ensemble) == ensemble_pickle
        assert len(scheduler._rafiki_blob()) == blob_bytes


class TestCacheEvictionCaveat:
    """A too-small shared cache must never silently break bit-identity."""

    def tiny_cache_rafiki(self, cassandra, tiny_surrogate):
        return make_rafiki(cassandra, tiny_surrogate, cache_capacity=1)

    def test_risky_round_falls_back_to_serial(self, cassandra, tiny_surrogate):
        # Two oracle tenants racing distinct regimes into a 1-entry
        # cache: every round would evict mid-round, so every round must
        # run serially — announced, and bit-identical to a serial run.
        specs = lambda: [  # noqa: E731
            spec("a", [0.20, 0.60], seed=1, policy=OraclePolicy()),
            spec("b", [0.80, 0.40], seed=2, policy=OraclePolicy()),
        ]
        ref = run_campaign(
            cassandra, specs(), rafiki=self.tiny_cache_rafiki(cassandra, tiny_surrogate)
        )
        sharded = run_campaign(
            cassandra,
            specs(),
            backend=ProcessPoolBackend(workers=2),
            rafiki=self.tiny_cache_rafiki(cassandra, tiny_surrogate),
        )
        assert sharded[0] == ref[0]
        topics = [t for t, _, _ in sharded[1]]
        assert topics.count("scheduler.serial_fallback") == 2
        # Apart from the fallback announcements, the same event log.
        assert [
            r for r in sharded[1] if r[0] != "scheduler.serial_fallback"
        ] == ref[1]

    def test_unforeseen_eviction_is_an_error_not_a_divergence(
        self, cassandra, tiny_surrogate
    ):
        # A reactive policy searches the *previous* window's regime —
        # invisible to the pre-round estimate (which looks at current
        # regimes).  Window 2: the estimate sees 0.9 (cached, fits) but
        # the policy searches 0.5, evicting 0.9 mid-merge.  That must
        # raise, not silently return possibly-divergent results.
        run = lambda backend: run_campaign(  # noqa: E731
            cassandra,
            [spec("r", [0.9, 0.5, 0.9], seed=1, policy=ReactivePolicy())],
            backend=backend,
            rafiki=self.tiny_cache_rafiki(cassandra, tiny_surrogate),
        )
        run(None)  # serial handles the eviction fine
        with pytest.raises(MiddlewareError, match="evicted"):
            run(SerialBackend())

    def test_ample_cache_never_falls_back(self, cassandra, tiny_surrogate):
        rafiki = make_rafiki(cassandra, tiny_surrogate)
        _, log, _ = run_campaign(
            cassandra,
            [
                spec("a", [0.20, 0.60], seed=1, policy=OraclePolicy()),
                spec("b", [0.80, 0.40], seed=2, policy=OraclePolicy()),
            ],
            backend=SerialBackend(),
            rafiki=rafiki,
        )
        assert all(t != "scheduler.serial_fallback" for t, _, _ in log)


class TestEngineExecutionTenants:
    ENGINE_WORKLOAD = WorkloadSpec(read_ratio=0.9, n_keys=2000, krd_mean_ops=300)

    def engine_spec(self, **kwargs):
        return TenantSpec(
            tenant_id="eng",
            rr_series=[0.9, 0.5],
            base_workload=self.ENGINE_WORKLOAD,
            seed=1,
            window_seconds=5,
            load=True,
            execution="engine",
            **kwargs,
        )

    def test_engine_tenant_serial_matches_sharded(self, cassandra):
        def campaign(backend):
            scheduler = MiddlewareScheduler(
                cassandra, CachingFakeRafiki(cassandra), backend=backend
            )
            scheduler.add_tenant(self.engine_spec())
            run = scheduler.run()["eng"]
            return [(e.window_index, e.mean_throughput) for e in run.events]

        serial = campaign(None)
        assert serial == campaign(SerialBackend())
        assert any(tp > 0 for _, tp in serial)

    def test_engine_execution_is_single_node_only(self):
        with pytest.raises(SearchError, match="single-node"):
            self.engine_spec(n_nodes=3)

    def test_adapter_validates_execution_mode(self, cassandra):
        config = cassandra.default_configuration()
        with pytest.raises(DatastoreError, match="execution"):
            SimulatedDatastoreAdapter(cassandra, config, execution="quantum")
        with pytest.raises(DatastoreError, match="workload"):
            SimulatedDatastoreAdapter(cassandra, config, execution="engine")
        with pytest.raises(DatastoreError, match="single-node"):
            SimulatedDatastoreAdapter(
                cassandra,
                config,
                execution="engine",
                workload=self.ENGINE_WORKLOAD,
                n_nodes=3,
            )

"""Content-addressed state shipping over persistent worker pools.

The sharded serve loop must ship the shared rafiki blob only when its
decision-relevant fingerprint changes, serve steady-state rounds from
worker-side blob caches, and survive worker restarts via the one-shot
miss/refetch protocol — all while staying *bit-identical* to the serial
loop (results, shared-cache statistics, LRU order, seed-stream
counters).  The ``backend.state_*`` events are the only topics exempt
from the event-sequence contract (blob placement depends on OS worker
scheduling).
"""

import pickle

import numpy as np
import pytest

from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.policies import OraclePolicy
from repro.core.rafiki import Rafiki
from repro.core.surrogate import SurrogateModel
from repro.datastore import CassandraLike
from repro.middleware import MiddlewareScheduler, TenantSpec
from repro.ml.ensemble import EnsembleConfig
from repro.runtime import EventBus, ProcessPoolBackend, SerialBackend
from repro.runtime.stateship import (
    FINGERPRINT_HEX_CHARS,
    WORKER_CACHE_SLOTS,
    StateMissError,
    StateShipment,
    StateShipper,
    install_shipment,
    reset_worker_state_cache,
    state_fingerprint,
)
from repro.workload.spec import WorkloadSpec

PARAMS = list(CASSANDRA_KEY_PARAMETERS)
WORKLOAD = WorkloadSpec(read_ratio=0.5, n_keys=100_000)


def square(x):
    return x * x


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
    model = SurrogateModel(space, PARAMS, EnsembleConfig(n_networks=2, max_epochs=12))
    return model.fit(PerformanceDataset(samples, PARAMS), seed=2)


@pytest.fixture(autouse=True)
def clean_worker_cache():
    """The worker-side blob cache is module-level state, and any
    in-parent run of a shard task (a ``SerialBackend`` serve, the pool's
    single-task shortcut) fills the *parent's* copy: a pool forked by a
    later test would inherit the blob and hit where it should miss."""
    reset_worker_state_cache()
    yield
    reset_worker_state_cache()


def make_rafiki(cassandra, tiny_surrogate):
    rafiki = Rafiki(
        cassandra, tiny_surrogate, PARAMS, seed=0, rr_cache_resolution=0.01
    )
    rafiki.optimizer.population_size = 8
    rafiki.optimizer.generations = 2
    return rafiki


def serve(cassandra, rafiki, series_by_tenant, backend=None, on_window=None):
    """Run one campaign; returns (summary, filtered log, scheduler)."""
    events = EventBus()
    log = []
    events.subscribe(log.append)
    if on_window is not None:
        events.subscribe(on_window, topic="scheduler.window")
    scheduler = MiddlewareScheduler(cassandra, rafiki, events=events, backend=backend)
    for i, (tenant_id, series) in enumerate(series_by_tenant.items()):
        scheduler.add_tenant(
            TenantSpec(
                tenant_id=tenant_id,
                rr_series=series,
                base_workload=WORKLOAD,
                policy=OraclePolicy(),
                seed=i + 1,
                window_seconds=30,
                load=False,
            )
        )
    results = scheduler.run()
    summary = {
        tid: [
            (
                e.window_index,
                e.read_ratio,
                e.reconfigured,
                e.mean_throughput,
                str(e.configuration),
            )
            for e in r.events
        ]
        for tid, r in results.items()
    }
    log_view = [
        (e.topic, e.message, repr(sorted(e.payload.items())))
        for e in log
        if not e.topic.startswith("backend.state")
    ]
    return summary, log_view, scheduler


def rafiki_state(rafiki):
    """The shared state a serial and sharded run must agree on bitwise."""
    return (
        (rafiki.cache.stats.hits, rafiki.cache.stats.misses),
        list(rafiki.cache._entries.keys()),
        dict(rafiki.seeds._counts),
    )


RESTART_SERIES = {"a": [0.30, 0.30, 0.30], "b": [0.30, 0.30, 0.30]}


def assert_restarted_workers_miss_then_refetch(cassandra, tiny_surrogate):
    """Close the pool after round 1: round 2's fingerprint-only tasks
    land on fresh workers, miss, refetch — and change no result."""
    ref = serve(
        cassandra, make_rafiki(cassandra, tiny_surrogate), dict(RESTART_SERIES)
    )
    backend = ProcessPoolBackend(workers=2)

    def kill_pool_after_round_1(event):
        if event.payload.get("window") == 1:
            backend.close()  # next round starts blob-less workers

    rafiki = make_rafiki(cassandra, tiny_surrogate)
    got = serve(
        cassandra,
        rafiki,
        dict(RESTART_SERIES),
        backend=backend,
        on_window=kill_pool_after_round_1,
    )
    backend.close()
    report = got[2].state_report()
    assert report["state_misses"] == 2
    assert backend.pools_created == 2
    # The refetch path must not cost bit-identity.
    assert got[0] == ref[0]
    assert got[1] == ref[1]
    assert rafiki_state(rafiki) == rafiki_state(ref[2].rafiki)


class TestFingerprint:
    def test_stable_and_compact(self):
        assert state_fingerprint(b"abc") == state_fingerprint(b"abc")
        assert len(state_fingerprint(b"abc")) == FINGERPRINT_HEX_CHARS

    def test_distinguishes_content(self):
        assert state_fingerprint(b"abc") != state_fingerprint(b"abd")


class TestWorkerBlobCache:
    def test_blob_shipment_installs_and_caches(self):
        blob = b"state-v1"
        shipment = StateShipment(state_fingerprint(blob), blob)
        assert install_shipment(shipment) == (blob, False)
        # A later fingerprint-only shipment is served from the cache.
        assert install_shipment(StateShipment(shipment.fingerprint)) == (blob, True)

    def test_fingerprint_only_miss_raises(self):
        with pytest.raises(StateMissError):
            install_shipment(StateShipment("deadbeefdeadbeef"))

    def test_cache_is_bounded_lru(self):
        blobs = [b"state-%d" % i for i in range(WORKER_CACHE_SLOTS + 2)]
        for blob in blobs:
            install_shipment(StateShipment(state_fingerprint(blob), blob))
        # The oldest two fell out; the newest are still resident.
        for blob in blobs[:2]:
            with pytest.raises(StateMissError):
                install_shipment(StateShipment(state_fingerprint(blob)))
        for blob in blobs[2:]:
            assert install_shipment(
                StateShipment(state_fingerprint(blob))
            ) == (blob, True)

    def test_payload_bytes(self):
        fp = state_fingerprint(b"x" * 100)
        assert StateShipment(fp).payload_bytes == len(fp)
        assert StateShipment(fp, b"x" * 100).payload_bytes == len(fp) + 100


class TestStateShipper:
    def test_blob_travels_only_on_fingerprint_change(self):
        shipper = StateShipper()
        pickles = []

        def factory():
            pickles.append(1)
            return b"blob-one"

        first = shipper.prepare("fp-1", factory)
        assert first.blob == b"blob-one"
        steady = shipper.prepare("fp-1", factory)
        assert steady.blob is None
        assert len(pickles) == 1  # steady state skips the pickling too
        changed = shipper.prepare("fp-2", lambda: b"blob-two")
        assert changed.blob == b"blob-two"
        assert shipper.blob_ships == 2

    def test_refetch_reships_held_blob(self):
        shipper = StateShipper()
        shipper.prepare("fp-1", lambda: b"blob-one")
        refetch = shipper.refetch("fp-1")
        assert refetch.blob == b"blob-one"
        with pytest.raises(StateMissError):
            shipper.refetch("fp-other")

    def test_events_and_counters(self):
        bus = EventBus()
        topics = []
        bus.subscribe(lambda e: topics.append(e.topic))
        shipper = StateShipper(events=bus)
        shipment = shipper.prepare("fp-1", lambda: b"blob")
        shipper.count_task(shipment)
        steady = shipper.prepare("fp-1", lambda: b"blob")
        shipper.count_task(steady)
        shipper.record_hit(tenant="a")
        shipper.record_miss(tenant="b")
        shipper.refetch("fp-1")
        assert topics == [
            "backend.state_shipped_bytes",
            "backend.state_hit",
            "backend.state_miss",
            "backend.state_shipped_bytes",
        ]
        report = shipper.report()
        assert report["blob_ships"] == 2
        assert report["fingerprint_tasks"] == 1
        assert report["state_hits"] == 1
        assert report["state_misses"] == 1
        assert report["payload_bytes"] == (len("fp-1") + 4) + len("fp-1")


class TestPersistentPool:
    def test_persistent_pool_reused_across_calls(self):
        with ProcessPoolBackend(workers=2) as backend:
            backend.map_tasks(square, [1, 2, 3])
            backend.map_tasks(square, [4, 5, 6])
            assert backend.persistent
            assert backend.map_calls == 2
            assert backend.pools_created == 1

    def test_teardown_mode_rebuilds_per_call(self):
        backend = ProcessPoolBackend(workers=2, persistent=False)
        backend.map_tasks(square, [1, 2, 3])
        assert backend._executor is None  # torn down eagerly
        backend.map_tasks(square, [4, 5, 6])
        assert backend.pools_created == 2

    def test_warm_prespawns_the_persistent_pool(self):
        with ProcessPoolBackend(workers=2) as backend:
            backend.warm()
            assert backend.pools_created == 1
            backend.map_tasks(square, [1, 2, 3])
            assert backend.pools_created == 1

    def test_warm_is_a_noop_for_serial_width(self):
        backend = ProcessPoolBackend(workers=1)
        backend.warm()
        assert backend.pools_created == 0


class TestServeStateShipping:
    SERIES = {"a": [0.30, 0.30, 0.30, 0.30], "b": [0.30, 0.30, 0.30, 0.30]}

    def test_bit_identity_across_pool_modes(self, cassandra, tiny_surrogate):
        series = {"a": [0.20, 0.62], "b": [0.62, 0.80], "c": [0.47, 0.62]}
        ref_rafiki = make_rafiki(cassandra, tiny_surrogate)
        ref = serve(cassandra, ref_rafiki, series)
        for backend in (
            SerialBackend(),
            ProcessPoolBackend(workers=2),                   # persistent pool
            ProcessPoolBackend(workers=2, persistent=False),  # cold pool/round
        ):
            rafiki = make_rafiki(cassandra, tiny_surrogate)
            got = serve(cassandra, rafiki, series, backend=backend)
            assert got[0] == ref[0]
            assert got[1] == ref[1]
            assert rafiki_state(rafiki) == rafiki_state(ref_rafiki)
            backend.close()

    def test_steady_state_ships_fingerprints_only(self, cassandra, tiny_surrogate):
        backend = ProcessPoolBackend(workers=2)
        _, log, scheduler = serve(
            cassandra,
            make_rafiki(cassandra, tiny_surrogate),
            dict(self.SERIES),
            backend=backend,
        )
        backend.close()
        report = scheduler.state_report()
        # Round 0 ships the initial blob; round 1 ships again (the 0.30
        # search grew the cache and burned a seed stream); rounds 2-3
        # are steady state — fingerprint-only tasks, plus one refetch
        # per worker that happened never to have held the blob.
        assert report["fingerprint_tasks"] == 4
        assert report["state_hits"] + report["state_misses"] == 4
        assert report["blob_ships"] == 2 + report["state_misses"]
        # Steady-state savings: the payload that actually travelled is a
        # fraction of what ship-every-task would have cost.
        full_cost = report["blob_ships"] and (
            report["blob_bytes"] // report["blob_ships"]
        ) * (report["blob_ships"] + report["fingerprint_tasks"])
        assert report["payload_bytes"] < full_cost

    def test_worker_restart_misses_then_refetches(self, cassandra, tiny_surrogate):
        assert_restarted_workers_miss_then_refetch(cassandra, tiny_surrogate)

    def test_retrain_reships_the_blob(self, cassandra, tiny_surrogate):
        def perturb_after_round_1(rafiki):
            def on_window(event):
                if event.payload.get("window") == 1:
                    net = rafiki.surrogate.ensemble.networks[0]
                    net.weights[0] = net.weights[0] * 1.001

            return on_window

        ref_rafiki = make_rafiki(cassandra, tiny_surrogate)
        ref = serve(
            cassandra,
            ref_rafiki,
            dict(self.SERIES),
            on_window=perturb_after_round_1(ref_rafiki),
        )
        backend = ProcessPoolBackend(workers=2)
        rafiki = make_rafiki(cassandra, tiny_surrogate)
        got = serve(
            cassandra,
            rafiki,
            dict(self.SERIES),
            backend=backend,
            on_window=perturb_after_round_1(rafiki),
        )
        backend.close()
        report = got[2].state_report()
        # Ships: round 0 (initial), round 1 (cache grew), round 2 (the
        # perturbed ensemble = a retrain) — round 3 is steady again.
        assert report["blob_ships"] == 3 + report["state_misses"]
        assert got[0] == ref[0]
        assert got[1] == ref[1]
        assert rafiki_state(rafiki) == rafiki_state(ref_rafiki)

    def test_fingerprint_ignores_volatile_bookkeeping(
        self, cassandra, tiny_surrogate
    ):
        rafiki = make_rafiki(cassandra, tiny_surrogate)
        scheduler = MiddlewareScheduler(cassandra, rafiki, backend=SerialBackend())
        before = scheduler._state_fingerprint()
        # Cache hit/miss stats and surrogate wall-clock stats mutate on
        # every lookup without affecting any recommend() result.
        rafiki.cache.get(rafiki.cache.quantize(0.77))
        rafiki.predicted_throughput(0.5, cassandra.default_configuration())
        assert scheduler._state_fingerprint() == before
        # Decision-relevant changes do move it: a new cache entry...
        result = rafiki.recommend(0.5)
        after_search = scheduler._state_fingerprint()
        assert after_search != before
        # ...and retrained ensemble weights.
        net = rafiki.surrogate.ensemble.networks[0]
        net.weights[0] = net.weights[0] * 1.001
        assert scheduler._state_fingerprint() != after_search
        assert result is not None

    def test_first_query_moves_neither_fingerprint_nor_blob(
        self, cassandra, tiny_surrogate
    ):
        # A freshly loaded surrogate has built none of its derived
        # inference state yet; building it must not leak into what ships.
        surrogate = pickle.loads(pickle.dumps(tiny_surrogate))
        rafiki = make_rafiki(cassandra, surrogate)
        scheduler = MiddlewareScheduler(cassandra, rafiki, backend=SerialBackend())
        fingerprint = scheduler._state_fingerprint()
        ensemble_pickle = pickle.dumps(surrogate.ensemble)
        blob_bytes = len(scheduler._rafiki_blob())
        rafiki.predicted_throughput(0.5, cassandra.default_configuration())
        rafiki.predicted_mean_std(0.5, cassandra.default_configuration())
        assert scheduler._state_fingerprint() == fingerprint
        assert pickle.dumps(surrogate.ensemble) == ensemble_pickle
        assert len(scheduler._rafiki_blob()) == blob_bytes

    def test_state_report_requires_a_backend(self, cassandra, tiny_surrogate):
        rafiki = make_rafiki(cassandra, tiny_surrogate)
        assert MiddlewareScheduler(cassandra, rafiki).state_report() is None
        with MiddlewareScheduler(cassandra, rafiki, workers=2) as scheduler:
            assert scheduler.state_report() == {
                "blob_ships": 0,
                "blob_bytes": 0,
                "fingerprint_tasks": 0,
                "payload_bytes": 0,
                "state_hits": 0,
                "state_misses": 0,
            }
        # Exiting the context closed the scheduler-owned pool.
        assert scheduler.backend._executor is None


class TestParentCacheDoesNotLeakAcrossTests:
    """In definition order: the first test leaves the blob in this
    process's worker cache; without ``clean_worker_cache`` the second
    one's "fresh" forked workers inherit it and hit (0 misses, not 2)."""

    def test_in_parent_serve_caches_its_blob_in_the_parent(
        self, cassandra, tiny_surrogate
    ):
        rafiki = make_rafiki(cassandra, tiny_surrogate)
        _, _, scheduler = serve(
            cassandra,
            rafiki,
            dict(RESTART_SERIES),
            backend=SerialBackend(),
        )
        assert install_shipment(StateShipment(scheduler._state_fingerprint()))[1]

    def test_then_restarted_workers_still_miss(self, cassandra, tiny_surrogate):
        assert_restarted_workers_miss_then_refetch(cassandra, tiny_surrogate)

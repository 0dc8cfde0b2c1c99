"""The three ``serve`` workloads: one ``MiddlewareScheduler`` campaign per
repetition, on fresh state.

``serve_search`` and ``serve_steady`` use the same ``core.rafiki`` in
opposite ways — every decision a cold GA search vs every decision a
cache hit — so a change to the search stack moves the first and not the
second, and a change to the session/substrate/event path does the
reverse.  ``serve_sharded`` is ``serve_search`` byte for byte through a
2-worker pool; it is the only workload where the sharding machinery runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from types import SimpleNamespace

import numpy as np

from repro.bench.collection import DataCollectionCampaign
from repro.config import CASSANDRA_KEY_PARAMETERS
from repro.core.policies import OraclePolicy
from repro.core.rafiki import Rafiki
from repro.core.surrogate import SurrogateModel
from repro.datastore import CassandraLike
from repro.faults.plan import (
    ActuationFault,
    DiskSlowdown,
    FaultPlan,
    StaleRecovery,
    TransientFault,
)
from repro.middleware import MiddlewareScheduler, TenantSpec
from repro.middleware.manifest import parse_manifest, specs_from_manifest
from repro.middleware.session import SESSION_PHASES
from repro.ml.ensemble import EnsembleConfig
from repro.runtime import EventBus
from repro.runtime.backend import ProcessPoolBackend
from repro.workload.spec import mgrast_workload

from calibrate import StepClock

PARAMS = list(CASSANDRA_KEY_PARAMETERS)

#: The surrogate is program state, not workload input: it is trained from
#: one fixed seed whatever ``--seed`` says, so two seeds time the same
#: model on different inputs.
FIXTURE_SEED = 2017

#: Fixture sizes shared by the three workloads: a 4x8 collection
#: campaign and a 6-network ensemble (4 survive pruning).  Chosen so one
#: from-scratch build takes ~1.2 s here and can be repeated three times
#: per run for a median ``setup_s``.
FIXTURE = {
    "full": dict(n_workloads=4, n_configurations=8, n_networks=6, max_epochs=40),
    "smoke": dict(n_workloads=3, n_configurations=4, n_networks=4, max_epochs=20),
}

#: Event topics left out of the repetition digest: blob placement depends
#: on OS worker scheduling (the repo's own serial == sharded contract
#: exempts it), and phase events exist only in the traced repetition.
_EXEMPT_PREFIX = "backend.state"
_PHASE_SUFFIX = ".session.phase"


class _Serve:
    """Shared fixture build, campaign driver and observation."""

    unit = "tenant-windows"
    MIN_REPS = 5

    def __init__(self, seed: int, budget: str):
        self.seed = seed
        self.budget = budget
        self.datastore = CassandraLike()
        self.surrogate = None

    # -- set-up ----------------------------------------------------------------

    def build_fixtures(self, pace) -> dict:
        """Collect a dataset and train the surrogate, from nothing;
        ``pace()`` between the two samples the host's speed."""
        size = FIXTURE[self.budget]
        t0 = time.perf_counter()
        dataset = DataCollectionCampaign(
            self.datastore,
            mgrast_workload(0.5),
            key_parameters=PARAMS,
            n_workloads=size["n_workloads"],
            n_configurations=size["n_configurations"],
            n_faulty=0,
            seed=FIXTURE_SEED,
        ).run()
        t1 = time.perf_counter()
        pace()
        t1b = time.perf_counter()
        self.surrogate = SurrogateModel(
            self.datastore.space,
            PARAMS,
            EnsembleConfig(
                n_networks=size["n_networks"], max_epochs=size["max_epochs"]
            ),
        ).fit(dataset, seed=FIXTURE_SEED)
        t2 = time.perf_counter()
        return {
            "bench.collect_s": t1 - t0,
            "bench.collect_samples": len(dataset),
            "ml.train_s": t2 - t1b,
            "ml.train_members": self.surrogate.ensemble.active_count,
        }

    def prepare(self, rec=None, reference: bool = False):
        """Fresh per-repetition state; untimed, counted into ``setup_s``."""
        state = SimpleNamespace(
            rec=rec,
            rafiki=self._rafiki(),
            specs=self._specs(),
            capacity=None,
            backend=None,
            prefilled=frozenset(),
        )
        self._prepare_more(state, reference)
        if rec is not None and state.backend is None:
            # Phase events replayed from a worker's journal would open
            # spans around nothing; only in-process sessions are traced.
            for spec in state.specs:
                spec.trace_phases = True
        state.stats0 = (state.rafiki.cache.stats.hits, state.rafiki.cache.stats.misses)
        return state

    def _prepare_more(self, state, reference: bool) -> None:
        pass

    # -- the timed region ------------------------------------------------------

    def run(self, state):
        bus = EventBus()
        state.log = []
        state.clock = StepClock(state.rec)
        bus.subscribe(state.log.append)
        bus.subscribe(state.clock.mark, topic="scheduler.start")
        bus.subscribe(state.clock.mark, topic="scheduler.window")
        scheduler = MiddlewareScheduler(
            self.datastore,
            state.rafiki,
            events=bus,
            backend=state.backend,
            cluster_capacity=state.capacity,
        )
        state.scheduler = scheduler
        state.bus = bus
        state.sessions = [scheduler.add_tenant(spec) for spec in state.specs]
        if state.rec is not None:
            self._instrument(state)
        state.results = scheduler.run()

    def finish(self, state) -> None:
        if state.backend is not None:
            state.backend.close()

    # -- tracing ---------------------------------------------------------------

    def _instrument(self, state) -> None:
        rec = state.rec
        rec.wrap(state.scheduler, "run", "scheduler.run")

        def on_round(event):
            rec.step = event.payload["window"] + 1

        rec.step = 0
        state.bus.subscribe(on_round, topic="scheduler.window")
        if state.backend is not None:
            # Sessions and the rafiki are pickled to the workers; a
            # wrapper on them would not survive the trip.  The sharded
            # trace holds parent-side spans only.
            rec.wrap(state.backend, "map_tasks", "backend.map")
            return

        rows = lambda args, result: int(np.atleast_2d(args[0]).shape[0])  # noqa: E731
        rec.wrap(state.rafiki, "recommend", "core.recommend")
        rec.wrap(self.surrogate, "predict_features", "ml.predict", units=rows)
        rec.wrap(self.surrogate, "predict_mean_std", "ml.predict", units=rows)
        for session in state.sessions:
            adapter = session.adapter
            rec.wrap(adapter, "run", "datastore.run",
                     units=lambda args, result: len(result))
            for attr in ("apply_config", "rolling_restart", "repair_config"):
                rec.wrap(adapter, attr, "datastore.push")
            rec.wrap(adapter, "verify_config", "datastore.verify")

        open_phase = []

        def on_phase(event):
            if not event.topic.endswith(_PHASE_SUFFIX):
                return
            if open_phase:
                rec.close(open_phase.pop())
            phase = event.payload["phase"]
            if phase in SESSION_PHASES:
                open_phase.append(rec.open(f"session.{phase}"))

        state.bus.subscribe(on_phase)

    def probe(self, state) -> dict:
        return {}

    def uninstrument(self) -> None:
        """Drop the wrappers the traced repetition left on shared fixtures."""
        for attr in ("predict_features", "predict_mean_std"):
            vars(self.surrogate).pop(attr, None)

    # -- observation (untimed) -------------------------------------------------

    def observe(self, state) -> SimpleNamespace:
        results = state.results
        windows = [e for run in results.values() for e in run.events]
        served = [e.mean_throughput for e in windows if not e.shed]
        summary = {
            tenant: [
                (
                    e.window_index, e.read_ratio, e.reconfigured,
                    e.mean_throughput, e.rolled_back, e.degraded, e.shed,
                    e.quarantined, str(e.configuration),
                )
                for e in run.events
            ]
            for tenant, run in results.items()
        }
        log = [
            (e.topic, e.message)
            for e in state.log
            if not e.topic.startswith(_EXEMPT_PREFIX)
            and not e.topic.endswith(_PHASE_SUFFIX)
        ]
        cache = state.rafiki.cache
        hits = cache.stats.hits - state.stats0[0]
        misses = cache.stats.misses - state.stats0[1]
        digest = hashlib.sha256(
            json.dumps([summary, log, hits, misses], sort_keys=True).encode()
        ).hexdigest()
        # Evaluations spent in the timed region: the results cached for
        # the regimes this campaign searched (the prefilled ones excluded).
        searched = {
            cache.quantize(float(np.clip(rr, 0.0, 1.0)))
            for spec in state.specs
            for rr in spec.rr_series
        } - state.prefilled
        evaluations = sum(
            cache.get(key).evaluations for key in sorted(searched) if key in cache
        )
        topics = [e.topic for e in state.log]
        count = lambda suffix: sum(1 for t in topics if t.endswith(suffix))  # noqa: E731
        guard = state.scheduler.guard_report()
        phase_events = count(_PHASE_SUFFIX)
        counts = {
            "core.recommend_calls": hits + misses,
            "core.cache_hits": hits,
            "core.cache_misses": misses,
            "core.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "ga.evaluations": evaluations,
            "ga.evals_per_search": evaluations / misses if misses else 0.0,
            "session.windows": len(windows),
            "session.reconfigs": sum(e.reconfigured for e in windows),
            "session.rollbacks": sum(e.rolled_back for e in windows),
            "session.degraded": sum(e.degraded for e in windows),
            "session.quarantined": sum(e.quarantined for e in windows),
            "session.shed": sum(e.shed for e in windows),
            "guard.sheds": count("guard.shed"),
            "guard.breaker_opens": sum(
                b["opens"]
                for entry in guard.values()
                for b in (entry["breakers"] or {}).values()
            ),
            "guard.slo_violations": sum(
                entry["slo"]["violations"] for entry in guard.values() if entry["slo"]
            ),
            "reconcile.repairs": sum(
                s.reconciler.repairs_succeeded
                for s in state.sessions
                if s.reconciler is not None
            ),
            "events.published": state.bus.published_count - phase_events,
            "events.per_window": (state.bus.published_count - phase_events)
            / len(windows),
            "scheduler.rounds": len(state.clock.steps),
            "scheduler.serial_fallbacks": count("scheduler.serial_fallback"),
        }
        report = state.scheduler.state_report()
        if report is not None:
            counts.update(
                {f"stateship.{key}": value for key, value in report.items()}
            )
            counts["backend.map_calls"] = state.backend.map_calls
            counts["backend.pools_created"] = state.backend.pools_created
        return SimpleNamespace(
            steps=state.clock.steps,
            kernels=state.clock.kernels,
            work_units=len(windows),
            sim_ops_per_s=float(np.mean(served)),
            digest=digest,
            counts=counts,
            failures=self.check(counts),
        )


def _expect(counts: dict, want: dict) -> list:
    return [
        f"{name} == {counts[name]}, expected {value}"
        for name, value in want.items()
        if counts[name] != value
    ]


class ServeSearch(_Serve):
    name = "serve_search"
    why = (
        "Every window a new read ratio: 200 cold GA searches per "
        "campaign, so core.search, ga and ml.ensemble do ~95 % of the "
        "work and the session and substrate almost none."
    )
    SIZES = {
        # 2 tenants x 100 rounds, every window a new regime -> 200 cold
        # searches.  GA population is the repo default (48); generations
        # are cut from the default 70 to 16 so that five repetitions, a
        # reference repetition and three fixture builds fit the
        # benchmark contract's total time cap on this 2-vCPU box (the
        # default budget measured 33 ms per search, 6.6 s per repetition;
        # this one 11 ms and ~2.1 s).
        "full": dict(tenants=2, rounds=100, generations=16),
        "smoke": dict(tenants=2, rounds=12, generations=8),
    }

    def _rafiki(self) -> Rafiki:
        # A 0.001 grid keeps every window's regime distinct; capacity
        # above the regime count keeps the sharded path off its
        # eviction-risk serial fallback.
        rafiki = Rafiki(
            self.datastore, self.surrogate, PARAMS, seed=1,
            rr_cache_resolution=0.001, cache_capacity=512,
        )
        rafiki.optimizer.generations = self.SIZES[self.budget]["generations"]
        return rafiki

    def _specs(self):
        size = self.SIZES[self.budget]
        tenants, rounds = size["tenants"], size["rounds"]
        grid = np.linspace(0.02, 0.98, tenants * rounds)
        np.random.default_rng(self.seed).shuffle(grid)
        return [
            TenantSpec(
                tenant_id=f"t{t}",
                rr_series=[float(rr) for rr in grid[t * rounds:(t + 1) * rounds]],
                base_workload=mgrast_workload(0.5),
                seed=t,
                window_seconds=60,
                load=False,
                policy=OraclePolicy(),
            )
            for t in range(tenants)
        ]

    def check(self, counts: dict) -> list:
        return _expect(counts, {"core.cache_hits": 0, "scheduler.serial_fallbacks": 0})


class ServeSharded(ServeSearch):
    name = "serve_sharded"
    why = (
        "The serve_search inputs through a 2-worker process pool: the "
        "only workload where sharded rounds, the backend and state "
        "shipping run; must reproduce the serial results."
    )
    WORKERS = 2
    # Measured here: the shared rafiki's blob is re-shipped every round
    # (the cache grows, so the fingerprint always moves) and a sharded
    # repetition takes 4.4-10 s against ~2.1 s serial.  Five of those do
    # not fit the benchmark contract's total time cap; three keep the
    # inputs byte-identical to serve_search and the 100 steps per
    # repetition.
    MIN_REPS = 3

    def _prepare_more(self, state, reference: bool) -> None:
        # The reference repetition runs serially: every sharded
        # repetition must reproduce the serial results and event log.
        if not reference:
            state.backend = ProcessPoolBackend(self.WORKERS)
            state.backend.warm()

    def check(self, counts: dict) -> list:
        want = {"core.cache_hits": 0, "scheduler.serial_fallbacks": 0}
        if "backend.pools_created" in counts:   # absent on the serial reference
            want["backend.pools_created"] = 1
        return _expect(counts, want)


class ServeSteady(_Serve):
    name = "serve_steady"
    why = (
        "The guarded 4-tenant fleet on a pre-filled cache: every decision "
        "a hit, so sessions, adapters, the analytic LSM, guards and the "
        "event bus do the work and the search stack none."
    )
    SIZES = {
        # 4 tenants x 150 one-minute windows.
        "full": dict(hours=2.5),
        "smoke": dict(hours=0.4),
    }
    #: Below the fleet's ~420 k ops/s aggregate demand, so admission
    #: control sheds the priority-5 tenant in most rounds.
    CLUSTER_CAPACITY = 380_000

    def _rafiki(self) -> Rafiki:
        return Rafiki(self.datastore, self.surrogate, PARAMS, seed=1)

    def _manifest(self) -> dict:
        """``examples/tenants.toml`` as an in-memory document (its
        ``fault_seed`` is replaced by the plans of ``_specs``)."""
        return {
            "guard": {"cluster_capacity": self.CLUSTER_CAPACITY, "shedding": True},
            "defaults": {
                "mode": "oracle",
                "hours": self.SIZES[self.budget]["hours"],
                "window_seconds": 60,
            },
            "tenants": [
                {
                    "id": "assembly", "seed": 1,
                    "slo": {"throughput_floor": 40000, "window_span": 8,
                            "error_budget": 0.25},
                },
                {"id": "annotation", "mode": "forecast", "seed": 2},
                {
                    "id": "archive", "seed": 3, "nodes": 3,
                    "replication_factor": 2, "restart_policy": "rolling",
                    "restart_seconds_per_node": 10,
                    "reconcile": {"max_repairs": 2, "span": 8, "escalate": True},
                },
                {
                    "id": "burst", "seed": 4,
                    "canary_margin": 0.2, "canary_std_factor": 0.5,
                    "priority": 5,
                    "guard": {"breaker_failures": 3, "breaker_cooldown": 4,
                              "max_restarts": 2, "span": 8},
                },
            ],
        }

    def _specs(self):
        specs = specs_from_manifest(parse_manifest(self._manifest()))
        # ``--seed`` starts each tenant's MG-RAST day at another window.
        # Every seed then serves the same read ratios in another
        # alignment, so ``sim_ops_per_s`` moves ~1 % between seeds and can
        # be held to a tight bound; freshly seeded traces moved it 4 %,
        # which would hide a search that decides 10 % worse.
        rng = np.random.default_rng(self.seed)
        for spec in specs:
            start = int(rng.integers(len(spec.rr_series)))
            spec.rr_series = [float(rr) for rr in np.roll(spec.rr_series, start)]
        # Fault plans with fixed counts and seeded placement, for the same
        # reason: every seed injects the same faults at other windows.
        # (The manifest's ``fault_seed`` draws a count per window, and its
        # schema cannot ask for actuation faults at all.)
        archive, burst = specs[2], specs[3]
        n = len(archive.rr_series)
        slots = [int(w) for w in rng.permutation(np.arange(2, n - 4, 3))]
        node = lambda: int(rng.integers(archive.n_nodes))  # noqa: E731
        archive.fault_plan = FaultPlan(
            actuation_faults=tuple(
                ActuationFault(w, node(), repairs_blocked=int(i < 2))
                for i, w in enumerate(slots[:12])
            ),
            stale_recoveries=tuple(
                StaleRecovery(w, node(), recover_window=w + 2) for w in slots[12:15]
            ),
            disk_slowdowns=tuple(
                DiskSlowdown(w, node(), factor=2.5, end_window=w + 2)
                for w in slots[15:18]
            ),
        )
        # Retried control-plane faults, plus one outage long enough to
        # open the search breaker (3 failures in a row, 3 attempts each).
        outage = slots[18] if len(slots) > 18 else slots[-1]
        burst.fault_plan = FaultPlan(
            transient_faults=tuple(
                TransientFault(kind, w, failures=1)
                for kind, ws in (("search", slots[19:23]), ("push", slots[23:27]))
                for w in ws
            )
            + tuple(
                TransientFault("search", w, failures=3)
                for w in range(outage, min(outage + 6, n))
            ),
        )
        return specs

    def _prepare_more(self, state, reference: bool) -> None:
        state.capacity = float(self.CLUSTER_CAPACITY)
        # Fill the default 0.05 grid: 21 regimes, every later decision a hit.
        cache = state.rafiki.cache
        keys = [cache.quantize(min(1.0, i * cache.resolution)) for i in range(21)]
        for key in keys:
            state.rafiki.recommend(key)
        state.prefilled = frozenset(keys)

    def check(self, counts: dict) -> list:
        return _expect(counts, {"core.cache_misses": 0})

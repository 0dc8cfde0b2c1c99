"""Overload protection: SLO tracking, breakers, bulkheads, admission control.

The guard layer's contract is twofold: **off means off** (a scheduler
without ``cluster_capacity`` or per-tenant slo/guard specs is
bit-identical to the unguarded serve loop) and **on means deterministic**
(the same fleet + seed sheds the same tenants, opens the same breakers,
and publishes the same ``guard.*`` event sequence on every rerun, serial
or sharded).
"""

import numpy as np
import pytest

from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.controller import ControllerEvent
from repro.core.search import OptimizationResult
from repro.datastore import CassandraLike
from repro.errors import GuardError, MiddlewareError, ReproError, SearchError
from repro.faults.plan import FaultPlan, TransientFault
from repro.middleware import (
    CapacityLedger,
    CircuitBreaker,
    GuardSpec,
    MiddlewareScheduler,
    SloSpec,
    SloTracker,
    TenantGuard,
    TenantSpec,
)
from repro.middleware.breaker import CLOSED, HALF_OPEN, OPEN, _Bulkhead
from repro.runtime import EventBus
from repro.runtime.backend import ProcessPoolBackend
from repro.workload.spec import WorkloadSpec

WORKLOAD = WorkloadSpec(read_ratio=0.5, n_keys=100_000)


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


class FakeRafiki:
    """Duck-typed recommender (no cache/seeds: generic merge path)."""

    def __init__(self, datastore):
        self.datastore = datastore
        self._cache = {}

    def recommend(self, read_ratio, use_cache=True):
        key = round(read_ratio, 2)
        if key not in self._cache:
            self._cache[key] = OptimizationResult(
                configuration=self.datastore.default_configuration(),
                predicted_throughput=0.0,
                evaluations=1,
                equivalent_wall_seconds=0.0,
                strategy="fake",
            )
        return self._cache[key]


class VaryingFakeRafiki(FakeRafiki):
    """Each regime maps to a *different* config, so regime flips push."""

    def __init__(self, datastore):
        super().__init__(datastore)
        self._space = cassandra_space()

    def recommend(self, read_ratio, use_cache=True):
        key = round(read_ratio, 2)
        if key not in self._cache:
            rng = np.random.default_rng(int(key * 100))
            self._cache[key] = OptimizationResult(
                configuration=self._space.sample_configuration(
                    rng, list(CASSANDRA_KEY_PARAMETERS)
                ),
                predicted_throughput=0.0,
                evaluations=1,
                equivalent_wall_seconds=0.0,
                strategy="fake",
            )
        return self._cache[key]


def window(index, throughput, shed=False, degraded=False, rolled_back=False):
    return ControllerEvent(
        window_index=index,
        read_ratio=0.5,
        reconfigured=False,
        configuration=None,
        mean_throughput=throughput,
        rolled_back=rolled_back,
        degraded=degraded,
        shed=shed,
    )


# ------------------------------------------------------------------ SLO


class TestSloSpec:
    def test_defaults_are_valid(self):
        spec = SloSpec()
        assert spec.allowed_violations == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"throughput_floor": -1.0},
            {"throughput_floor": float("nan")},
            {"throughput_floor": float("inf")},
            {"window_span": 0},
            {"error_budget": 1.5},
            {"error_budget": -0.1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(GuardError):
            SloSpec(**kwargs)

    def test_guard_error_is_a_repro_error(self):
        assert issubclass(GuardError, MiddlewareError)
        assert issubclass(MiddlewareError, ReproError)


class TestSloTracker:
    def test_floor_and_event_flags_violate(self):
        tracker = SloTracker(SloSpec(throughput_floor=100.0))
        assert not tracker.violates(window(0, 150.0))
        assert tracker.violates(window(1, 50.0))
        assert tracker.violates(window(2, 150.0, shed=True))
        assert tracker.violates(window(3, 150.0, degraded=True))
        assert tracker.violates(window(4, 150.0, rolled_back=True))

    def test_budget_exhausts_then_recovers(self):
        spec = SloSpec(throughput_floor=100.0, window_span=4, error_budget=0.25)
        tracker = SloTracker(spec)   # one violation allowed per 4 windows
        assert tracker.score(window(0, 50.0)) == (True, None)
        violated, transition = tracker.score(window(1, 50.0))
        assert (violated, transition) == (True, "budget_exhausted")
        assert tracker.budget_exhausted
        # Two healthy windows push one violation out of the span.
        assert tracker.score(window(2, 150.0)) == (False, None)
        assert tracker.score(window(3, 150.0)) == (False, None)
        _, transition = tracker.score(window(4, 150.0))
        assert transition == "recovered"
        assert not tracker.budget_exhausted

    def test_attainment(self):
        tracker = SloTracker(SloSpec(throughput_floor=100.0))
        assert tracker.attainment == 1.0
        tracker.score(window(0, 150.0))
        tracker.score(window(1, 50.0))
        assert tracker.attainment == pytest.approx(0.5)


# ------------------------------------------------------------------ breaker


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(GuardError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(GuardError):
            CircuitBreaker("x", cooldown_windows=0)

    def test_consecutive_failures_trip_it_open(self):
        b = CircuitBreaker("search", failure_threshold=2, cooldown_windows=3)
        assert b.record_failure(0) is None
        assert b.record_failure(1) == "open"
        assert b.state == OPEN
        assert b.opened_count == 1

    def test_success_resets_the_failure_streak(self):
        b = CircuitBreaker("search", failure_threshold=2)
        b.record_failure(0)
        b.record_success(1)
        assert b.record_failure(2) is None
        assert b.state == CLOSED

    def test_open_short_circuits_until_cooldown(self):
        b = CircuitBreaker("push", failure_threshold=1, cooldown_windows=3)
        b.record_failure(0)
        assert b.allow(1) == (False, None)
        assert b.allow(2) == (False, None)
        assert b.short_circuits == 2
        # Cooldown elapsed: exactly one half-open probe is admitted.
        assert b.allow(3) == (True, "half_open")
        assert b.state == HALF_OPEN

    def test_half_open_probe_success_closes(self):
        b = CircuitBreaker("push", failure_threshold=1, cooldown_windows=1)
        b.record_failure(0)
        b.allow(1)
        assert b.record_success(1) == "close"
        assert b.state == CLOSED

    def test_half_open_probe_failure_reopens(self):
        b = CircuitBreaker("push", failure_threshold=1, cooldown_windows=1)
        b.record_failure(0)
        b.allow(1)
        assert b.record_failure(1) == "open"
        assert b.state == OPEN
        assert b.opened_count == 2

    def test_force_open_is_idempotent(self):
        b = CircuitBreaker("push")
        assert b.force_open(5) == "open"
        assert b.force_open(6) is None
        assert b.opened_count == 1


# ------------------------------------------------------------------ ledger


class TestCapacityLedger:
    def test_validation(self):
        for bad in (0.0, -5.0, float("inf"), float("nan")):
            with pytest.raises(GuardError):
                CapacityLedger(bad)

    def test_under_capacity_admits_everyone(self):
        ledger = CapacityLedger(100.0)
        shed, factor = ledger.plan_round({"a": 30.0, "b": 40.0}, ["b", "a"])
        assert shed == [] and factor == 1.0
        assert ledger.charged == {"a": 30.0, "b": 40.0}

    def test_sheds_in_supplied_order_until_it_fits(self):
        ledger = CapacityLedger(100.0)
        demands = {"a": 60.0, "b": 50.0, "c": 40.0}
        shed, factor = ledger.plan_round(demands, ["c", "b", "a"])
        assert shed == ["c", "b"]          # 150 -> 110 -> 60 <= 100
        assert factor == 1.0
        assert ledger.shed_counts == {"c": 1, "b": 1}

    def test_zero_demand_tenants_are_skipped(self):
        ledger = CapacityLedger(100.0)
        shed, _ = ledger.plan_round(
            {"idle": 0.0, "a": 80.0, "b": 70.0}, ["idle", "b", "a"]
        )
        assert shed == ["b"]               # shedding idle frees nothing

    def test_shedding_off_scales_everyone_down(self):
        ledger = CapacityLedger(100.0, shedding=False)
        shed, factor = ledger.plan_round({"a": 100.0, "b": 100.0}, ["b", "a"])
        assert shed == []
        assert factor == pytest.approx(0.5)
        assert ledger.rounds_overloaded == 1
        assert ledger.charged == {"a": 50.0, "b": 50.0}


# ------------------------------------------------------------------ guard


class TestGuardSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"breaker_failures": 0},
            {"breaker_cooldown": 0},
            {"span": 0},
            {"max_restarts": -1},
            {"max_restarts": -2},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(GuardError):
            GuardSpec(**kwargs)


class TestTenantGuard:
    def events_of(self, guard_kwargs):
        bus = EventBus()
        log = []
        bus.subscribe(log.append)
        return TenantGuard("t", events=bus, **guard_kwargs), log

    def test_bulkhead_caps_pushes_per_rolling_span(self):
        guard, log = self.events_of(
            {"spec": GuardSpec(max_restarts=1, span=2)}
        )
        assert guard.allow_push(0)
        guard.record_push(0, ok=True)
        assert not guard.allow_push(1)         # budget spent for the span
        assert [e.topic for e in log] == ["guard.bulkhead.exhausted"]
        assert guard.allow_push(2)             # window 0 rolled out

    @pytest.mark.parametrize("limit, kept", [(None, 0), (3, 3)])
    def test_bulkhead_remembers_only_what_it_caps(self, limit, kept):
        """5,000 windows later an uncapped bulkhead (the guard's push and
        the reconciler's repair default) holds nothing, a capped one only
        the uses still inside its span."""
        bulkhead = _Bulkhead("push", limit, span=8)
        for w in range(5_000):
            if bulkhead.allow(w):
                bulkhead.record(w)
        assert len(bulkhead._uses) == kept

    def test_breaker_trip_publishes_events(self):
        guard, log = self.events_of(
            {"spec": GuardSpec(breaker_failures=1, breaker_cooldown=2)}
        )
        guard.record_push(0, ok=False)
        assert not guard.allow_push(1)
        assert guard.allow_push(2)             # half-open probe
        guard.record_push(2, ok=True)
        assert [e.topic for e in log] == [
            "guard.breaker.open",
            "guard.breaker.short_circuit",
            "guard.breaker.half_open",
            "guard.breaker.close",
        ]

    def test_budget_exhaustion_opens_the_push_breaker(self):
        guard, log = self.events_of(
            {"slo": SloSpec(throughput_floor=100, window_span=2, error_budget=0.0)}
        )
        guard.observe_window(window(0, 50.0))
        assert guard.push_breaker.state == OPEN
        assert [e.topic for e in log] == [
            "guard.slo.violation",
            "guard.slo.budget_exhausted",
            "guard.breaker.open",
        ]
        assert log[-1].payload["reason"] == "error-budget"

    def test_no_slo_means_infinite_budget(self):
        guard = TenantGuard("t")
        assert guard.budget_remaining == float("inf")

    def test_publishes_nothing_without_a_bus(self):
        guard = TenantGuard(
            "t", slo=SloSpec(throughput_floor=100, error_budget=0.0)
        )
        guard.observe_window(window(0, 50.0))   # must not raise


# ---------------------------------------------------------- session wiring


def guarded_spec(tenant_id, series, **kwargs):
    kwargs.setdefault("window_seconds", 30)
    kwargs.setdefault("load", False)
    return TenantSpec(
        tenant_id=tenant_id,
        rr_series=series,
        base_workload=WORKLOAD,
        **kwargs,
    )


def run_fleet(
    cassandra, specs, capacity=None, shedding=True, rafiki=None, **sched_kwargs
):
    events = EventBus()
    log = []
    events.subscribe(log.append)
    scheduler = MiddlewareScheduler(
        cassandra,
        rafiki if rafiki is not None else FakeRafiki(cassandra),
        events=events,
        cluster_capacity=capacity,
        shedding=shedding,
        **sched_kwargs,
    )
    for s in specs:
        scheduler.add_tenant(s)
    results = scheduler.run()
    summary = {
        tid: [
            (e.window_index, e.mean_throughput, e.shed, e.degraded)
            for e in r.events
        ]
        for tid, r in results.items()
    }
    log_view = [
        (e.topic, e.message, repr(sorted(e.payload.items())))
        for e in log
    ]
    return summary, log_view, scheduler


class TestSessionGuardWiring:
    def test_search_faults_trip_the_search_breaker(self, cassandra):
        # Every search attempt fails from window 1 on: the retry budget
        # degrades windows 1..3, which trips the breaker (threshold 3),
        # and the open circuit then *holds* config instead of degrading.
        plan = FaultPlan(
            transient_faults=[
                TransientFault(kind="search", window=w, failures=99)
                for w in range(1, 10)
            ]
        )
        series = [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5, 0.1]
        spec = guarded_spec(
            "t",
            series,
            fault_plan=plan,
            guard=GuardSpec(breaker_failures=3, breaker_cooldown=2),
        )
        summary, log, scheduler = run_fleet(cassandra, [spec])
        topics = [t for t, _, _ in log]
        assert "tenant.t.guard.breaker.open" in topics
        assert "tenant.t.guard.breaker.short_circuit" in topics
        assert "tenant.t.guard.breaker.half_open" in topics
        guard = scheduler.session("t").guard
        assert guard.search_breaker.opened_count >= 1
        # Short-circuited windows hold config: strictly fewer degraded
        # windows than the 9 faulted ones.
        degraded = sum(1 for _, _, _, d in summary["t"] if d)
        assert 0 < degraded < 9

    def test_restart_bulkhead_caps_reconfigurations(self, cassandra):
        series = [0.1, 0.9, 0.1, 0.9, 0.1, 0.9]
        base = guarded_spec("free", list(series))
        capped = guarded_spec(
            "capped",
            list(series),
            guard=GuardSpec(max_restarts=1, span=len(series)),
        )
        summary, log, scheduler = run_fleet(
            cassandra, [base, capped], rafiki=VaryingFakeRafiki(cassandra)
        )
        free = scheduler.session("free").result.reconfiguration_count
        capped_count = scheduler.session("capped").result.reconfiguration_count
        assert free > 1
        assert capped_count == 1
        assert any(t == "tenant.capped.guard.bulkhead.exhausted" for t, _, _ in log)

    def test_capacity_factor_validated(self, cassandra):
        _, _, scheduler = run_fleet(cassandra, [guarded_spec("t", [0.5])])
        session = scheduler.session("t")
        session.start(load_keys=None)
        with pytest.raises(SearchError, match="capacity_factor"):
            session.begin_window(0.5, capacity_factor=0.0)
        with pytest.raises(SearchError, match="capacity_factor"):
            session.begin_window(0.5, capacity_factor=1.5)

    def test_shed_window_requires_started_session(self, cassandra):
        _, _, scheduler = run_fleet(cassandra, [guarded_spec("t", [0.5])])
        session = scheduler.session("t")
        session.start(load_keys=None)
        event = session.record_shed_window(0.5)
        assert event.shed and event.mean_throughput == 0.0
        session.begin_window(0.5)
        with pytest.raises(SearchError, match="still in phase"):
            session.record_shed_window(0.5)


# ----------------------------------------------------- scheduler integration


def overload_fleet(floor=1000.0):
    slo = SloSpec(throughput_floor=floor, window_span=4, error_budget=0.25)
    return [
        guarded_spec("v1", [0.3] * 8, seed=1, priority=0, slo=slo),
        guarded_spec("v2", [0.6] * 8, seed=2, priority=0, slo=slo),
        guarded_spec(
            "hog", [0.5] * 8, seed=3, priority=5, n_nodes=4, slo=slo
        ),
    ]


class TestAdmissionControl:
    def capacity_for(self, cassandra):
        # Probe the unguarded fleet so the capacity sits between
        # victims-only demand and full-fleet demand.
        summary, _, _ = run_fleet(cassandra, overload_fleet())
        per = {t: summary[t][1][1] for t in summary}
        return sum(per.values()) * 0.7

    def test_priority_shedding_protects_victims(self, cassandra):
        capacity = self.capacity_for(cassandra)
        unguarded, _, _ = run_fleet(cassandra, overload_fleet())
        # A floor the victims only miss when the overload reaches them.
        floor = 0.8 * min(unguarded[v][1][1] for v in ("v1", "v2"))
        guarded, log, scheduler = run_fleet(
            cassandra, overload_fleet(floor), capacity=capacity
        )
        sheds = {
            t: sum(1 for e in guarded[t] if e[2]) for t in guarded
        }
        assert sheds["hog"] > 0
        assert sheds["v1"] == sheds["v2"] == 0
        # Victims keep serving exactly what they served unguarded.
        for victim in ("v1", "v2"):
            assert [e[1] for e in guarded[victim]] == [
                e[1] for e in unguarded[victim]
            ]
        assert any(t == "guard.shed" for t, _, _ in log)
        # ... and their SLO attainment is strictly better than under
        # proportional degradation (the same overload, shedding off).
        _, _, degraded = run_fleet(
            cassandra, overload_fleet(floor), capacity=capacity, shedding=False
        )
        for victim in ("v1", "v2"):
            assert (
                scheduler.guard_report()[victim]["slo"]["attainment"]
                > degraded.guard_report()[victim]["slo"]["attainment"]
            )

    def test_shedding_is_deterministic_across_reruns(self, cassandra):
        capacity = self.capacity_for(cassandra)
        first = run_fleet(cassandra, overload_fleet(), capacity=capacity)[:2]
        second = run_fleet(cassandra, overload_fleet(), capacity=capacity)[:2]
        assert first == second

    def test_sharded_shedding_matches_serial(self, cassandra):
        capacity = self.capacity_for(cassandra)
        serial = run_fleet(cassandra, overload_fleet(), capacity=capacity)[:2]
        sharded = run_fleet(
            cassandra,
            overload_fleet(),
            capacity=capacity,
            backend=ProcessPoolBackend(workers=2),
        )[:2]
        assert sharded == serial

    def test_shedding_off_degrades_everyone(self, cassandra):
        capacity = self.capacity_for(cassandra)
        unguarded, _, _ = run_fleet(cassandra, overload_fleet())
        scaled, _, scheduler = run_fleet(
            cassandra, overload_fleet(), capacity=capacity, shedding=False
        )
        assert scheduler.ledger.rounds_overloaded > 0
        for tenant in ("v1", "v2", "hog"):
            assert all(not e[2] for e in scaled[tenant])   # nobody shed
            # Overloaded rounds served strictly less than unguarded.
            assert sum(e[1] for e in scaled[tenant]) < sum(
                e[1] for e in unguarded[tenant]
            )

    def test_idle_guard_layer_is_bit_identical_off(self, cassandra):
        """A capacity the fleet never reaches must change nothing."""
        off = run_fleet(cassandra, overload_fleet())[:2]
        idle = run_fleet(cassandra, overload_fleet(), capacity=1e12)[:2]
        assert idle == off

    def test_guard_report_shape(self, cassandra):
        capacity = self.capacity_for(cassandra)
        _, _, scheduler = run_fleet(
            cassandra, overload_fleet(), capacity=capacity
        )
        report = scheduler.guard_report()
        assert set(report) == {"v1", "v2", "hog"}
        hog = report["hog"]
        assert hog["priority"] == 5
        assert hog["sheds"] > 0
        assert 0.0 <= hog["slo"]["attainment"] <= 1.0
        assert set(hog["breakers"]) == {"search", "push"}
        # Shed windows burn the hog's own error budget: a breaker opens.
        assert sum(b["opens"] for b in hog["breakers"].values()) >= 1


class TestSchedulerValidation:
    def test_workers_below_one_rejected(self, cassandra):
        with pytest.raises(SearchError, match="workers"):
            MiddlewareScheduler(cassandra, FakeRafiki(cassandra), workers=0)

    def test_bad_capacity_rejected(self, cassandra):
        with pytest.raises(GuardError, match="capacity"):
            MiddlewareScheduler(
                cassandra, FakeRafiki(cassandra), cluster_capacity=-1.0
            )

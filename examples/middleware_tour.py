#!/usr/bin/env python3
"""The multi-tenant middleware service layer, end to end.

Rafiki's pitch is *middleware*: one tuning service between many dynamic
workloads and a datastore fleet.  This tour runs that service:

1. train a shared surrogate offline on a tiny budget (as in the
   quickstart),
2. host four tenants — different seeded MG-RAST days, one on a 3-node
   ring with rolling restarts, one with faults and a canary guard — on
   one MiddlewareScheduler, every tenant's events namespaced on a
   shared bus,
3. show the rolling restart charging real transient capacity loss
   (instead of the flat penalty constant),
4. re-run the whole campaign and verify the event sequence is
   identical — the scheduler's determinism contract.

    python examples/middleware_tour.py
"""

from repro import (
    CASSANDRA_KEY_PARAMETERS,
    CassandraLike,
    EventBus,
    FaultPlan,
    MGRastTraceGenerator,
    MiddlewareScheduler,
    RafikiPipeline,
    TenantSpec,
    mgrast_workload,
)
from repro.bench import YCSBBenchmark
from repro.ml.ensemble import EnsembleConfig


def train_shared_surrogate(cassandra):
    print("== 1. Train the shared surrogate (tiny offline budget) ==")
    pipeline = RafikiPipeline(
        cassandra,
        mgrast_workload(0.5),
        benchmark=YCSBBenchmark(cassandra, run_seconds=30),
        ensemble_config=EnsembleConfig(n_networks=4, max_epochs=60),
        n_workloads=5,
        n_configurations=8,
        n_faulty=2,
        seed=11,
    )
    rafiki, _ = pipeline.run(key_parameters=CASSANDRA_KEY_PARAMETERS)
    print("   done\n")
    return rafiki


def tenant_fleet():
    """Four tenants, four different days, four different shapes."""

    def day(seed, hours=2):
        return MGRastTraceGenerator(seed=seed, window_seconds=60).read_ratio_series(
            hours * 3600
        )

    return [
        TenantSpec(
            tenant_id="assembly",
            rr_series=day(1),
            base_workload=mgrast_workload(0.5),
            seed=1,
            window_seconds=60,
            load=False,
        ),
        TenantSpec(
            tenant_id="annotation",
            rr_series=day(2),
            base_workload=mgrast_workload(0.5),
            seed=2,
            window_seconds=60,
            load=False,
        ),
        TenantSpec(
            tenant_id="archive",
            rr_series=day(3),
            base_workload=mgrast_workload(0.5),
            seed=3,
            window_seconds=60,
            n_nodes=3,
            replication_factor=2,
            restart_policy="rolling",     # reconfigs cost modeled downtime
            restart_seconds_per_node=10.0,
            load=False,
        ),
        TenantSpec(
            tenant_id="burst",
            rr_series=day(4),
            base_workload=mgrast_workload(0.5),
            seed=4,
            window_seconds=60,
            fault_plan=FaultPlan.generate(
                seed=21,
                n_windows=len(day(4)),
                n_nodes=1,
                slowdown_probability=0.0,
                search_fault_probability=0.1,
                push_fault_probability=0.1,
            ),
            canary_margin=0.2,
            canary_std_factor=0.5,
            load=False,
        ),
    ]


def run_campaign(cassandra, rafiki, quiet=False):
    events = EventBus()
    log = []
    events.subscribe(lambda e: log.append((e.topic, e.message)))
    scheduler = MiddlewareScheduler(cassandra, rafiki, events=events)
    for spec in tenant_fleet():
        scheduler.add_tenant(spec)
    if not quiet:
        events.subscribe(
            lambda e: print(f"   {e}"), topic="tenant.archive.actuate"
        )
        events.subscribe(
            lambda e: print(f"   {e}"), topic="tenant.burst.controller"
        )
    results = scheduler.run()
    return results, log


def main():
    cassandra = CassandraLike()
    rafiki = train_shared_surrogate(cassandra)

    print("== 2. Serve four tenants on one scheduler ==")
    results, log = run_campaign(cassandra, rafiki)

    print("\n== 3. Per-tenant outcomes ==")
    for tenant_id, run in results.items():
        print(
            f"   {tenant_id:<12} {len(run.events):>3} windows  "
            f"{run.mean_throughput:>10,.0f} ops/s  "
            f"{run.reconfiguration_count} reconfigs  "
            f"{run.rollback_count} rollbacks  "
            f"{run.degraded_count} degraded"
        )
    restart_events = [
        topic for topic, _ in log if topic == "tenant.archive.actuate.rolling_restart"
    ]
    print(f"   archive paid {len(restart_events)} rolling-restart transient(s)")
    assert restart_events, "expected the rolling tenant to pay for its restarts"

    print("\n== 4. Determinism: the same campaign replays identically ==")
    _, log2 = run_campaign(cassandra, rafiki, quiet=True)
    assert log == log2, "same seeds + same tenants must replay identically"
    print(f"   {len(log)} events, identical sequence on re-run")


if __name__ == "__main__":
    main()

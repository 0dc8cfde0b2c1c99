#!/usr/bin/env python3
"""Fault injection and the self-healing tuning loop, end to end.

The paper's evaluation assumes a healthy testbed; this tour breaks one
on purpose:

1. train Rafiki offline on a tiny budget (as in the quickstart),
2. build a deterministic FaultPlan — one of four cluster nodes crashes
   mid-trace, right as the workload's regime shift triggers a
   reconfiguration, plus a burst of transient search faults,
3. replay the trace with retry, degraded-mode, and canary-rollback
   guardrails enabled, printing every fault and recovery event as the
   tenant's control loop rides through them.

Because plan and loop share nothing but seeds, re-running this script
reproduces the identical event sequence.

    python examples/fault_injection_tour.py
"""

from repro import (
    CASSANDRA_KEY_PARAMETERS,
    CassandraLike,
    EventBus,
    FaultPlan,
    HysteresisPolicy,
    MiddlewareScheduler,
    OraclePolicy,
    RafikiPipeline,
    TenantSpec,
    mgrast_workload,
)
from repro.bench.ycsb import YCSBBenchmark
from repro.faults import DiskSlowdown, NodeCrash, TransientFault
from repro.ml.ensemble import EnsembleConfig


def main():
    print("== 1. Train Rafiki offline (tiny budget) ==")
    cassandra = CassandraLike()
    base_workload = mgrast_workload(0.5)
    pipeline = RafikiPipeline(
        cassandra,
        base_workload,
        benchmark=YCSBBenchmark(cassandra, run_seconds=30),
        ensemble_config=EnsembleConfig(n_networks=4, max_epochs=60),
        n_workloads=5,
        n_configurations=8,
        n_faulty=2,
        seed=11,
    )
    rafiki, _ = pipeline.run(key_parameters=CASSANDRA_KEY_PARAMETERS)
    print("   done")

    print("\n== 2. Write the fault schedule ==")
    # A regime shift at window 4 makes the controller push a new config;
    # the same window crashes node 1 of 4 and degrades node 2's disk, so
    # the canary sees the throughput collapse and blames the push.  The
    # search at window 4 also fails once, which the session's retry absorbs.
    rr_series = [0.2, 0.2, 0.2, 0.2, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
    plan = FaultPlan(
        node_crashes=(NodeCrash(window=4, node=1, recover_window=6),),
        disk_slowdowns=(DiskSlowdown(window=4, node=2, factor=3.0, end_window=6),),
        transient_faults=(TransientFault(kind="search", window=4, failures=1),),
    )
    print(f"   {plan.to_json()}")

    print("\n== 3. Replay with guardrails, watching the event stream ==")
    events = EventBus()
    events.subscribe(lambda e: print(f"   {e}"), topic="tenant.mgrast.fault")
    events.subscribe(lambda e: print(f"   {e}"), topic="tenant.mgrast.controller")
    scheduler = MiddlewareScheduler(cassandra, rafiki, events=events)
    scheduler.add_tenant(
        TenantSpec(
            tenant_id="mgrast",
            rr_series=rr_series,
            base_workload=base_workload,
            policy=HysteresisPolicy(OraclePolicy(), min_change=0.1),
            window_seconds=60,
            fault_plan=plan,
            n_nodes=4,
            replication_factor=2,
            # The tiny 4-net ensemble is very unsure about the read-heavy
            # regime; a softer std factor keeps the guard decisive.
            canary_margin=0.2,
            canary_std_factor=0.5,
            seed=7,
            load=False,
        )
    )
    run = scheduler.run()["mgrast"]

    print("\n== 4. What the run survived ==")
    print(f"   windows:          {len(run.events)}")
    print(f"   mean throughput:  {run.mean_throughput:>9,.0f} ops/s")
    print(f"   reconfigurations: {run.reconfiguration_count}")
    print(f"   rollbacks:        {run.rollback_count}")
    print(f"   degraded windows: {run.degraded_count}")

    print("\n   window  RR    throughput  flags")
    for ev in run.events:
        flags = "".join(
            label
            for cond, label in (
                (ev.reconfigured, " reconfig"),
                (ev.rolled_back, " ROLLBACK"),
                (ev.degraded, " degraded"),
            )
            if cond
        )
        print(
            f"   {ev.window_index:>5}  {ev.read_ratio:.2f} "
            f"{ev.mean_throughput:>10,.0f} {flags}"
        )
    assert run.rollback_count >= 1, "expected the canary to fire"
    print("\n   same plan + same seed => identical event sequence every run")


if __name__ == "__main__":
    main()

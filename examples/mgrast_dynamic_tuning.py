#!/usr/bin/env python3
"""Dynamic metagenomics workloads: trace characterization + online tuning.

Reproduces the paper's motivating scenario end to end:

1. synthesize an MG-RAST-like query trace (Figure 3's regime switches),
2. characterize it — read ratio per 15-minute window, exponential KRD
   fit (§3.3),
3. replay the windows as two middleware tenants on long-lived simulated
   Cassandras: static default vs Rafiki-driven reconfiguration.

    python examples/mgrast_dynamic_tuning.py
"""

import numpy as np

from repro import (
    CASSANDRA_KEY_PARAMETERS,
    CassandraLike,
    MGRastTraceGenerator,
    MiddlewareScheduler,
    RafikiPipeline,
    TenantSpec,
    characterize_trace,
    mgrast_workload,
)


def main():
    print("== 1. Synthesize a day of MG-RAST-like queries ==")
    generator = MGRastTraceGenerator(seed=42, queries_per_window=1500)
    trace = generator.generate(duration_seconds=24 * 3600)
    print(f"   {len(trace):,} queries over {trace.duration / 3600:.0f} hours")

    print("\n== 2. Characterize the workload (paper section 3.3) ==")
    ch = characterize_trace(trace)
    ratios = np.array(ch.read_ratios)
    print(f"   windows: {ch.n_windows} x {ch.window_seconds / 60:.0f} min")
    print(f"   overall read ratio: {ch.overall_read_ratio:.2f}")
    print(f"   fitted KRD scale: {ch.krd_mean_ops:,.0f} ops ({ch.krd_samples} reuses)")
    print(f"   read-heavy windows (RR>0.7): {(ratios > 0.7).mean():.0%}")
    print(f"   write-heavy windows (RR<0.3): {(ratios < 0.3).mean():.0%}")
    print(f"   largest window-to-window jump: {np.abs(np.diff(ratios)).max():.2f}")

    print("\n== 3. Train Rafiki offline ==")
    cassandra = CassandraLike()
    base_workload = mgrast_workload(0.5)
    pipeline = RafikiPipeline(cassandra, base_workload, seed=11)
    rafiki, _ = pipeline.run(key_parameters=CASSANDRA_KEY_PARAMETERS)
    print("   done")

    print("\n== 4. Replay the day: static default vs Rafiki ==")
    scheduler = MiddlewareScheduler(cassandra, rafiki)
    for tenant_id, tuned in (("static", False), ("rafiki", True)):
        scheduler.add_tenant(
            TenantSpec(
                tenant_id=tenant_id,
                rr_series=ratios,
                base_workload=base_workload,
                use_rafiki=tuned,
                seed=5,
            )
        )
    results = scheduler.run()
    static, adaptive = results["static"], results["rafiki"]

    print(f"   static default : {static.mean_throughput:>9,.0f} ops/s")
    print(
        f"   rafiki online  : {adaptive.mean_throughput:>9,.0f} ops/s "
        f"({(adaptive.mean_throughput / static.mean_throughput - 1) * 100:+.1f}%)"
    )
    print(f"   reconfigurations: {adaptive.reconfiguration_count}")

    print("\n   window  RR    static      rafiki     reconfig")
    for s_ev, a_ev in list(zip(static.events, adaptive.events))[:12]:
        marker = "  <- switch" if a_ev.reconfigured else ""
        print(
            f"   {a_ev.window_index:>5}  {a_ev.read_ratio:.2f} "
            f"{s_ev.mean_throughput:>9,.0f} {a_ev.mean_throughput:>10,.0f}{marker}"
        )


if __name__ == "__main__":
    main()

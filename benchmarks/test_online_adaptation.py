"""Online adaptation to the dynamic MG-RAST workload (the paper's
motivating scenario, §1 + §2.4.1 + §4.8's "agile enough" claim).

Rafiki's cached, seconds-fast searches let the controller re-configure
at every abrupt 15-minute regime switch; a static default configuration
(what a slow online tuner degenerates to at these time scales) leaves
throughput on the table.
"""

import numpy as np

from benchmarks.conftest import SEED, replay_day, write_results
from repro.workload.mgrast import MGRastTraceGenerator


def test_online_adaptation(cassandra, cassandra_rafiki, base_workload, benchmark):
    rr_series = MGRastTraceGenerator(seed=SEED).read_ratio_series(
        duration_seconds=24 * 3600
    )

    static = replay_day(cassandra, None, base_workload, rr_series)
    adaptive = replay_day(cassandra, cassandra_rafiki, base_workload, rr_series)

    gain = adaptive.mean_throughput / static.mean_throughput - 1.0

    # Dynamic tuning must beat the static default over a dynamic day.
    assert gain > 0.05, f"adaptive gain {gain:.1%}"
    # The controller actually reacts to the regime switches.
    assert adaptive.reconfiguration_count >= 3
    # But not to every tiny wobble: reconfigurations stay far below the
    # window count.
    assert adaptive.reconfiguration_count < len(rr_series) * 0.7

    # Per-regime wins: read-heavy windows gain the most.
    read_heavy_gain = np.mean(
        [
            a.mean_throughput / s.mean_throughput - 1.0
            for a, s in zip(adaptive.events, static.events)
            if a.read_ratio >= 0.7
        ]
    )
    assert read_heavy_gain > 0.10

    payload = {
        "windows": len(rr_series),
        "static_mean_throughput": static.mean_throughput,
        "adaptive_mean_throughput": adaptive.mean_throughput,
        "overall_gain": gain,
        "read_heavy_window_gain": float(read_heavy_gain),
        "reconfigurations": adaptive.reconfiguration_count,
    }
    benchmark.extra_info.update(
        {k: payload[k] for k in ("overall_gain", "reconfigurations")}
    )
    write_results("online_adaptation", payload)

    # Benchmark a cached recommendation — the controller's hot path.
    benchmark(lambda: cassandra_rafiki.recommend(0.88))

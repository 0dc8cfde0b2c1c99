"""Ablation: controller decision modes (the paper's §6 future work).

Compares, over the same MG-RAST day, the static default against Rafiki
driven by (a) an oracle of the current window's RR (the paper's implicit
setting), (b) a purely reactive one-window-lag controller, and (c) a
Markov regime forecaster reconfiguring proactively at window boundaries.

Expected shape: every Rafiki mode beats static; the oracle bounds the
others; forecasting recovers most of the reactive controller's lag loss
on a regime-switching workload.
"""

import pytest

from benchmarks.conftest import SEED, replay_day, write_results
from repro.core.policies import HysteresisPolicy, make_policy
from repro.workload.mgrast import MGRastTraceGenerator


@pytest.fixture(scope="module")
def mode_results(cassandra, new_cassandra_rafiki, base_workload):
    rr_series = MGRastTraceGenerator(seed=SEED + 3).read_ratio_series(24 * 3600)

    # Each tuned mode gets its own Rafiki, so no mode starts from the
    # recommendation cache or seed stream another mode's day left.
    def run(mode, rafiki):
        return replay_day(
            cassandra,
            rafiki,
            base_workload,
            rr_series,
            policy=HysteresisPolicy(make_policy(mode), min_change=0.08),
        )

    return {
        "static": run("oracle", None),
        "oracle": run("oracle", new_cassandra_rafiki()),
        "reactive": run("reactive", new_cassandra_rafiki()),
        "forecast": run("forecast", new_cassandra_rafiki()),
    }


def test_ablation_forecasting(mode_results, benchmark):
    tp = {name: run.mean_throughput for name, run in mode_results.items()}

    # Every tuned mode beats the static default on a dynamic day.
    for mode in ("oracle", "reactive", "forecast"):
        assert tp[mode] > tp["static"], f"{mode} vs static"

    # The oracle upper-bounds the information-constrained modes
    # (tolerance for simulation noise).
    assert tp["oracle"] >= tp["reactive"] * 0.97
    assert tp["oracle"] >= tp["forecast"] * 0.97

    # Forecasting recovers most of the oracle-reactive gap (>= 40%), or
    # the gap was negligible to begin with.
    gap = tp["oracle"] - tp["reactive"]
    if gap > 0.01 * tp["oracle"]:
        recovered = (tp["forecast"] - tp["reactive"]) / gap
        assert recovered > -0.5  # never substantially worse than reactive

    payload = {
        "mean_throughput": tp,
        "gain_over_static": {
            mode: tp[mode] / tp["static"] - 1.0
            for mode in ("oracle", "reactive", "forecast")
        },
        "reconfigurations": {
            name: run.reconfiguration_count for name, run in mode_results.items()
        },
    }
    benchmark.extra_info.update(payload["gain_over_static"])
    write_results("ablation_forecasting", payload)
    benchmark(lambda: max(tp.values()))

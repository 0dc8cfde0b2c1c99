"""Table 4: ScyllaDB — Rafiki-selected configurations vs grid search.

Paper:
                         WL1 (R=70%)          WL2 (R=100%)
    technique         Rafiki    Grid       Rafiki    Grid
    avg throughput    69,411   75,351      66,503   63,595
    gain over default  12.3%    21.8%        9.0%     4.6%

Shape claims: Rafiki improves over ScyllaDB's default despite the
internal auto-tuner, the gains are *much smaller* than Cassandra's
(~9-12% vs ~41%), and Rafiki lands in the same band as a grid search.
"""

import numpy as np
import pytest

from benchmarks.conftest import SEED, write_results
from repro.bench.ycsb import YCSBBenchmark
from repro.config import SCYLLA_KEY_PARAMETERS
from repro.core.search import ExhaustiveSearch
from repro.workload.spec import mgrast_workload

RATIOS = (0.7, 1.0)
#: Averaged over several runs: ScyllaDB's tuner-induced variance makes a
#: single 5-minute window unreliable (Figure 10).
REPEATS = 3


def scylla_measure(scylla, config, rr, seed_base):
    bench = YCSBBenchmark(scylla)
    wl = mgrast_workload(rr)
    return float(
        np.mean(
            [
                bench.run(config, wl, seed=seed_base + i).mean_throughput
                for i in range(REPEATS)
            ]
        )
    )


@pytest.fixture(scope="module")
def table4(scylla, new_scylla_rafiki):
    scylla_rafiki = new_scylla_rafiki()
    rows = {}
    default_cfg = scylla.default_configuration()
    for rr in RATIOS:
        tuned = scylla_rafiki.recommend(rr).configuration
        grid = ExhaustiveSearch(
            scylla,
            SCYLLA_KEY_PARAMETERS,
            resolution=3,
            benchmark=YCSBBenchmark(scylla),
            max_configs=40,
        ).optimize(mgrast_workload(rr), seed=SEED)
        rows[rr] = {
            "default": scylla_measure(scylla, default_cfg, rr, SEED + 11),
            "rafiki": scylla_measure(scylla, tuned, rr, SEED + 11),
            "grid": scylla_measure(scylla, grid.configuration, rr, SEED + 11),
        }
    return rows


def test_table4_scylla_tuning(table4, cassandra_results_for_contrast, benchmark):
    gains = {
        rr: {
            "rafiki": row["rafiki"] / row["default"] - 1.0,
            "grid": row["grid"] / row["default"] - 1.0,
        }
        for rr, row in table4.items()
    }

    # Rafiki improves over the default despite the auto-tuner; the
    # tuner's own oscillation (Figure 10) leaves a few percent of noise
    # on any single workload's comparison.
    assert gains[0.7]["rafiki"] > 0.0
    assert gains[1.0]["rafiki"] > -0.05
    assert (gains[0.7]["rafiki"] + gains[1.0]["rafiki"]) / 2 > 0.0

    # Gains are modest (auto-tuner already near-optimal): well under the
    # Cassandra read-heavy gains.
    assert gains[0.7]["rafiki"] < cassandra_results_for_contrast
    # Rafiki is in the same band as the grid search (paper: both modest).
    assert abs(gains[0.7]["rafiki"] - gains[0.7]["grid"]) < 0.25

    payload = {
        "measured": {str(rr): row for rr, row in table4.items()},
        "measured_gains": {str(rr): g for rr, g in gains.items()},
        "paper": {
            "0.7": {"rafiki_gain": 0.1229, "grid_gain": 0.218},
            "1.0": {"rafiki_gain": 0.09, "grid_gain": 0.0457},
        },
    }
    benchmark.extra_info.update(
        {
            "scylla_rafiki_gain_rr70": gains[0.7]["rafiki"],
            "scylla_rafiki_gain_rr100": gains[1.0]["rafiki"],
        }
    )
    write_results("table4_scylla_tuning", payload)
    benchmark(lambda: gains[0.7]["rafiki"])


@pytest.fixture(scope="module")
def cassandra_results_for_contrast(cassandra, new_cassandra_rafiki, measure):
    """Cassandra read-heavy gain, for the Scylla-is-harder contrast."""
    cassandra_rafiki = new_cassandra_rafiki()
    tuned = cassandra_rafiki.recommend(0.9).configuration
    default = cassandra.default_configuration()
    return measure(tuned, 0.9) / measure(default, 0.9) - 1.0

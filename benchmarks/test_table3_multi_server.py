"""Table 3: Rafiki improvement over defaults, single- vs two-server.

Paper:
    workload          RR=10%    RR=50%    RR=100%
    single server     15.2%     41.3%     48.4%
    two servers        3.2%     67.4%     51.4%

Shape claims: improvements exist in both setups, grow with the read
ratio, and the write-heavy improvement *shrinks* in the replicated
two-server setup (RF+1 doubles every write, so the second server buys
little at RR=10%).
"""

import numpy as np
import pytest

from benchmarks.conftest import SEED, write_results
from repro.datastore import Cluster

RATIOS = (0.1, 0.5, 1.0)


def cluster_throughput(cassandra, config, rr, n_nodes, workload, seed):
    cluster = Cluster(
        cassandra,
        config,
        n_nodes=n_nodes,
        replication_factor=n_nodes,  # paper: RF raised with the node count
        profile=workload.to_profile(),
        seed=seed,
    )
    cluster.load(workload.n_keys)
    cluster.settle()
    return float(np.mean(cluster.run(rr, duration=300)))


@pytest.fixture(scope="module")
def table3(cassandra, new_cassandra_rafiki, base_workload):
    cassandra_rafiki = new_cassandra_rafiki()
    rows = {}
    default_cfg = cassandra.default_configuration()
    for n_nodes in (1, 2):
        for rr in RATIOS:
            tuned_cfg = cassandra_rafiki.recommend(rr).configuration
            base = cluster_throughput(
                cassandra, default_cfg, rr, n_nodes, base_workload, seed=SEED + 7
            )
            tuned = cluster_throughput(
                cassandra, tuned_cfg, rr, n_nodes, base_workload, seed=SEED + 7
            )
            rows[(n_nodes, rr)] = {
                "default": base,
                "rafiki": tuned,
                "improvement": tuned / base - 1.0,
            }
    return rows


def test_table3_multi_server(table3, benchmark):
    single = {rr: table3[(1, rr)]["improvement"] for rr in RATIOS}
    double = {rr: table3[(2, rr)]["improvement"] for rr in RATIOS}

    # Rafiki helps in both setups at read-leaning workloads.
    assert single[1.0] > 0.10
    assert double[1.0] > 0.10

    # Gains grow with the read ratio in the single-server setup.
    assert single[1.0] > single[0.1]

    # The write-heavy two-server gain collapses relative to single
    # (replication doubles writes; paper: 15.2% -> 3.2%).
    assert double[0.1] < single[0.1] + 0.05

    payload = {
        "measured": {
            f"{n}node_rr{int(rr*100)}": table3[(n, rr)]
            for n in (1, 2)
            for rr in RATIOS
        },
        "paper": {
            "1node": {"rr10": 0.152, "rr50": 0.4134, "rr100": 0.4835},
            "2node": {"rr10": 0.032, "rr50": 0.6737, "rr100": 0.514},
        },
    }
    benchmark.extra_info.update(
        {
            "single_rr100": single[1.0],
            "double_rr100": double[1.0],
            "single_rr10": single[0.1],
            "double_rr10": double[0.1],
        }
    )
    write_results("table3_multi_server", payload)
    benchmark(lambda: single[1.0])

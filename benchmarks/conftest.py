"""Shared fixtures for the experiment benches.

Every table and figure of the paper gets one bench module; expensive
artifacts (the 200-sample dataset, trained surrogates) are built once
per session here.  Benches assert the paper's *shape* claims (who wins,
rough factors, where crossovers fall) and attach the reproduced rows to
``benchmark.extra_info`` so the pytest-benchmark report carries the
paper-vs-measured numbers.  Each bench also writes its rows to
``benchmarks/results/<name>.json`` for EXPERIMENTS.md.

The benches run on one BLAS/OpenMP thread, pinned before numpy loads
(``repro.blas``), so the surrogates they train do not depend on the
host's core count.
"""

from __future__ import annotations

import json
import pathlib

from repro.blas import pin_threads

pin_threads()

import pytest  # noqa: E402

from repro.bench.collection import DataCollectionCampaign  # noqa: E402
from repro.bench.ycsb import YCSBBenchmark  # noqa: E402
from repro.config import CASSANDRA_KEY_PARAMETERS, SCYLLA_KEY_PARAMETERS  # noqa: E402
from repro.core.rafiki import Rafiki  # noqa: E402
from repro.core.surrogate import SurrogateModel  # noqa: E402
from repro.datastore import CassandraLike, ScyllaLike  # noqa: E402
from repro.middleware import MiddlewareScheduler, TenantSpec  # noqa: E402
from repro.ml.ensemble import EnsembleConfig  # noqa: E402
from repro.workload.spec import mgrast_workload  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One shared experiment seed; every artifact derives from it.
SEED = 2017


def write_results(name: str, payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{name}.json", "w") as fh:
        json.dump(payload, fh, indent=2, default=float)


def replay_day(datastore, rafiki, base_workload, rr_series, **spec_kwargs):
    """One tenant's RR series on a fresh scheduler -> its ``ControllerRun``.

    ``rafiki=None`` is the static-default baseline; ``spec_kwargs`` go
    to :class:`TenantSpec` (the default policy is the paper's oracle
    behind a 0.08 hysteresis).
    """
    scheduler = MiddlewareScheduler(datastore, rafiki)
    scheduler.add_tenant(
        TenantSpec(
            tenant_id="replay",
            rr_series=rr_series,
            base_workload=base_workload,
            use_rafiki=rafiki is not None,
            seed=SEED,
            **spec_kwargs,
        )
    )
    return scheduler.run()["replay"]


@pytest.fixture(scope="session")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="session")
def scylla():
    return ScyllaLike()


@pytest.fixture(scope="session")
def base_workload():
    return mgrast_workload(0.5, name="mgrast-base")


@pytest.fixture(scope="session")
def cassandra_dataset(cassandra, base_workload):
    """The §4.2 campaign: 11 workloads x 20 configs, 20 faulted dropped."""
    campaign = DataCollectionCampaign(
        cassandra,
        base_workload,
        key_parameters=CASSANDRA_KEY_PARAMETERS,
        seed=SEED,
    )
    dataset = campaign.run()
    assert len(dataset) == 200
    return dataset


@pytest.fixture(scope="session")
def cassandra_surrogate(cassandra, cassandra_dataset):
    """Paper-sized ensemble (20 nets, pruned to 14) on all 200 samples."""
    model = SurrogateModel(
        cassandra.space,
        CASSANDRA_KEY_PARAMETERS,
        EnsembleConfig(n_networks=20),
    )
    return model.fit(cassandra_dataset, seed=SEED)


@pytest.fixture(scope="session")
def new_cassandra_rafiki(cassandra, cassandra_surrogate):
    """A factory of fresh Rafikis over the session's surrogate: each has
    its own empty recommendation cache and seed stream, so no bench
    reads recommendations another bench warmed."""
    return lambda: Rafiki(
        cassandra, cassandra_surrogate, CASSANDRA_KEY_PARAMETERS, seed=SEED
    )


@pytest.fixture
def cassandra_rafiki(new_cassandra_rafiki):
    return new_cassandra_rafiki()


@pytest.fixture(scope="session")
def scylla_dataset(scylla):
    campaign = DataCollectionCampaign(
        scylla,
        mgrast_workload(0.7, name="mgrast-scylla"),
        key_parameters=SCYLLA_KEY_PARAMETERS,
        seed=SEED + 1,
    )
    dataset = campaign.run()
    assert len(dataset) == 200
    return dataset


@pytest.fixture(scope="session")
def scylla_surrogate(scylla, scylla_dataset):
    model = SurrogateModel(
        scylla.space,
        SCYLLA_KEY_PARAMETERS,
        EnsembleConfig(n_networks=20),
    )
    return model.fit(scylla_dataset, seed=SEED + 1)


@pytest.fixture(scope="session")
def new_scylla_rafiki(scylla, scylla_surrogate):
    """:func:`new_cassandra_rafiki` for the ScyllaDB surrogate."""
    return lambda: Rafiki(scylla, scylla_surrogate, SCYLLA_KEY_PARAMETERS, seed=SEED + 1)


@pytest.fixture
def scylla_rafiki(new_scylla_rafiki):
    return new_scylla_rafiki()


@pytest.fixture(scope="session")
def measure(cassandra, base_workload):
    """Measured (simulated-server) throughput of a config at a read ratio."""
    bench = YCSBBenchmark(cassandra)

    def _measure(config, read_ratio, seed=SEED + 99):
        wl = base_workload.with_read_ratio(read_ratio)
        return bench.run(config, wl, seed=seed).mean_throughput

    return _measure

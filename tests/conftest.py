"""Shared fixtures: small-scale knobs and hardware for fast tests.

The suite runs on one BLAS/OpenMP thread, pinned here before numpy
loads by the same helper as ``python -m repro`` (``repro.blas``): the
trainer's small solves gain nothing from threads, and a trained
surrogate's last bits depend on the thread count.
"""

from __future__ import annotations

from repro.blas import pin_threads

pin_threads()

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import Phase, settings  # noqa: E402

from repro.config import cassandra_space  # noqa: E402
from repro.config.cassandra import LEVELED, SIZE_TIERED  # noqa: E402
from repro.lsm.knobs import EngineKnobs  # noqa: E402
from repro.middleware import MiddlewareScheduler, TenantSpec  # noqa: E402
from repro.runtime import EventBus  # noqa: E402
from repro.sim.hardware import HardwareSpec  # noqa: E402

KB = 1024
MB = 1024 * KB

#: ``--hypothesis-profile=no-shrink`` asks only whether a property fails,
#: not for its smallest counterexample (``scripts/mutation_traps.py``):
#: shrinking a failing engine state machine can take minutes.
settings.register_profile(
    "no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target]
)


def make_knobs(**overrides) -> EngineKnobs:
    """Small engine knobs that flush/compact within a few hundred ops."""
    base = dict(
        compaction_method=SIZE_TIERED,
        concurrent_writes=32,
        concurrent_reads=32,
        file_cache_bytes=256 * KB,
        memtable_space_bytes=64 * KB,
        memtable_cleanup_threshold=0.5,
        memtable_flush_writers=2,
        concurrent_compactors=2,
        compaction_throughput_bytes=16 * MB,
        bloom_fp_chance=0.01,
        key_cache_bytes=16 * KB,
        row_cache_bytes=0,
        commitlog_segment_bytes=64 * KB,
        commitlog_sync_period_s=10.0,
        sstable_target_bytes=32 * KB,
    )
    base.update(overrides)
    return EngineKnobs(**base)


#: Tenant id of :func:`run_single_tenant`; its events publish under
#: ``tenant.t0.``.
TENANT_ID = "t0"


def run_single_tenant(datastore, rafiki, workload, series, **spec_kwargs):
    """One tenant on a fresh scheduler -> ``(ControllerRun, event_log)``.

    ``rafiki=None`` runs the static-default baseline; ``spec_kwargs`` go
    to :class:`TenantSpec` verbatim.
    """
    events = EventBus()
    event_log = []
    events.subscribe(event_log.append)
    scheduler = MiddlewareScheduler(datastore, rafiki, events=events)
    scheduler.add_tenant(
        TenantSpec(
            tenant_id=TENANT_ID,
            rr_series=series,
            base_workload=workload,
            use_rafiki=rafiki is not None,
            **spec_kwargs,
        )
    )
    return scheduler.run()[TENANT_ID], event_log


@pytest.fixture
def small_knobs() -> EngineKnobs:
    return make_knobs()


@pytest.fixture
def leveled_knobs() -> EngineKnobs:
    return make_knobs(compaction_method=LEVELED)


@pytest.fixture
def small_hardware() -> HardwareSpec:
    """A toy server so simulated costs stay visible at small scale."""
    return HardwareSpec(
        name="test-box",
        cpu_cores=4,
        cpu_ghz=3.0,
        ram_bytes=4 * MB,
        disk_seq_bandwidth=16 * MB,
        disk_rand_iops=2_000.0,
        disk_count=1,
        net_bandwidth=10 * MB,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def space():
    return cassandra_space()

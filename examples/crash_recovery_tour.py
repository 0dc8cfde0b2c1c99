#!/usr/bin/env python3
"""Crash recovery where it matters: the engine and the artifacts.

The offline jobs are cheap (the paper's whole collection campaign runs
in seconds) and seeded, so a killed ``collect`` or ``train`` is simply
rerun.  What must survive a crash is the storage engine's state and the
files those jobs leave behind.  This tour breaks both on purpose:

1. crash the LSM engine mid-workload at scheduled CrashPoints, recover
   through SSTable scrub + commitlog replay, and check the survivor
   serves exactly what an uninterrupted engine does,
2. flip one byte in a saved dataset and watch the checksummed loader
   refuse it loudly instead of returning silently wrong samples; then
   rerun the campaign and get the original bytes back.

Everything is seeded, so every run of this script prints the same
numbers.

    python examples/crash_recovery_tour.py
"""

import pathlib
import tempfile

import numpy as np

from repro import (
    CASSANDRA_KEY_PARAMETERS,
    CassandraLike,
    CrashPoint,
    EventBus,
    FaultPlan,
    PersistenceError,
    mgrast_workload,
)
from repro.bench.collection import DataCollectionCampaign
from repro.bench.dataset import load_dataset, save_dataset
from repro.bench.ycsb import YCSBBenchmark
from repro.recovery.crashsim import generate_ops, run_ops, states_equivalent


def make_campaign():
    cassandra = CassandraLike()
    return DataCollectionCampaign(
        cassandra,
        mgrast_workload(0.5),
        key_parameters=list(CASSANDRA_KEY_PARAMETERS),
        n_workloads=3,
        n_configurations=3,
        n_faulty=1,
        benchmark=YCSBBenchmark(cassandra, run_seconds=30),
        seed=11,
    )


def main():
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="crash-tour-"))
    events = EventBus()
    events.subscribe(lambda e: print(f"   {e}"), topic="recovery")

    print("== 1. LSM engine crash + recovery at scheduled CrashPoints ==")
    cassandra = CassandraLike()
    config = cassandra.space.default_configuration()
    ops = generate_ops(np.random.default_rng(3), n_ops=120, value_bytes=256)
    plan = FaultPlan(crash_points=(CrashPoint(op=40), CrashPoint(op=90)))

    healthy = cassandra.new_engine_instance(config)
    run_ops(healthy, ops)
    crashed = cassandra.new_engine_instance(config)
    crashed.events = events
    report = run_ops(crashed, ops, crash_plan=plan)
    for recovery in report.recoveries:
        print(
            f"   recovered: {recovery.replayed_records} records replayed "
            f"({recovery.replayed_bytes:,} B), "
            f"{recovery.scrubbed_tables} SSTables scrubbed, "
            f"{recovery.recovery_seconds:.3f}s charged"
        )
    keys = sorted({op[1] for op in ops})
    assert states_equivalent(crashed, healthy, keys)
    print(f"   after {report.crashes} kills: all {len(keys)} keys identical "
          "to the never-crashed engine")

    print("\n== 2. Corruption is refused, not returned; a rerun restores it ==")
    path = workdir / "dataset.json"
    save_dataset(make_campaign().run(), path)
    original = path.read_bytes()
    path.write_text(original.decode().replace("0", "1", 1))  # one flipped digit
    try:
        load_dataset(path, cassandra.space, events=events)
    except PersistenceError as exc:
        print(f"   PersistenceError: {exc}")
    else:
        raise AssertionError("corrupt artifact was accepted")
    save_dataset(make_campaign().run(), path)
    assert path.read_bytes() == original
    print("   rerunning the seeded campaign wrote the original bytes back")
    print("\n   every artifact is atomic (temp + fsync + rename) and "
          "CRC32-checked;\n   see 'Crash consistency & recovery' in DESIGN.md")


if __name__ == "__main__":
    main()

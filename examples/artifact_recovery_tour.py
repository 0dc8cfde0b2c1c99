#!/usr/bin/env python3
"""Artifact recovery: a corrupt file is refused, a rerun restores it.

The offline jobs are cheap (the paper's whole collection campaign runs
in seconds) and seeded, so a killed ``collect`` or ``train`` is simply
rerun.  What must survive a crash is the files those jobs leave behind.
This tour flips one byte in a saved dataset and watches the checksummed
loader refuse it loudly instead of returning silently wrong samples;
then it reruns the campaign and gets the original bytes back.

Everything is seeded, so every run of this script prints the same
numbers.

    python examples/artifact_recovery_tour.py
"""

import pathlib
import tempfile

from repro import (
    CASSANDRA_KEY_PARAMETERS,
    CassandraLike,
    EventBus,
    PersistenceError,
    mgrast_workload,
)
from repro.bench.collection import DataCollectionCampaign
from repro.bench.dataset import load_dataset, save_dataset
from repro.bench.ycsb import YCSBBenchmark


def make_campaign(cassandra):
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
    with tempfile.TemporaryDirectory(prefix="artifact-tour-") as workdir:
        tour(pathlib.Path(workdir))


def tour(workdir):
    events = EventBus()
    events.subscribe(lambda e: print(f"   {e}"), topic="recovery")
    cassandra = CassandraLike()

    print("== Corruption is refused, not returned; a rerun restores it ==")
    path = workdir / "dataset.json"
    save_dataset(make_campaign(cassandra).run(), path)
    original = path.read_bytes()
    path.write_text(original.decode().replace("0", "1", 1))  # one flipped digit
    try:
        load_dataset(path, cassandra.space, events=events)
    except PersistenceError as exc:
        print(f"   PersistenceError: {exc}")
    else:
        raise AssertionError("corrupt artifact was accepted")
    save_dataset(make_campaign(cassandra).run(), path)
    assert path.read_bytes() == original
    print("   rerunning the seeded campaign wrote the original bytes back")
    print("\n   every artifact is atomic (temp + fsync + rename) and "
          "CRC32-checked;\n   see 'Crash consistency & recovery' in DESIGN.md")


if __name__ == "__main__":
    main()

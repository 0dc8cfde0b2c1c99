"""``engine_ycsb``: the materialized LSM engine driven directly.

``OperationGenerator.operation_batch`` feeds ``LSMEngine.execute_batch``
in fixed blocks; the tuner does nothing.  Reads and writes share every
block, so a gain for one that costs the other shows as no net gain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np

from repro.datastore import CassandraLike
from repro.lsm.engine import LSMEngine
from repro.workload.generator import OperationGenerator
from repro.workload.spec import WorkloadSpec

from calibrate import StepClock

MB = 1024 * 1024


class EngineYcsb:
    name = "engine_ycsb"
    why = (
        "The materialized LSM engine driven directly at read ratio 0.5 "
        "with flushes and compactions in the timed region: "
        "workload.generator and lsm.engine do all the work, the tuner "
        "none."
    )
    unit = "ops"
    MIN_REPS = 5
    SIZES = {
        # 40 k keys x 3 KB = 120 MB, ~4x the 32 MB file cache (the
        # paper's "large KRD, cache useless").  Memtable space is scaled
        # to the 51 k-op repetition the way tests/conftest.py scales
        # knobs: 64 MB x cleanup threshold 0.10 = 6.4 MB per flush, so
        # the timed region sees ~12 flushes and completes a size-tiered
        # compaction.  Under the Cassandra space's smallest memtable
        # (512 MB) the same run flushes once and compacts nothing.
        "full": dict(keys=40_000, blocks=100, block_ops=512, memtable_mb=64),
        "smoke": dict(keys=6_000, blocks=24, block_ops=256, memtable_mb=8),
    }
    VALUE_BYTES = 3072
    READ_RATIO = 0.5
    PROBE_BLOCKS = 8
    MIN_FLUSHES = 4
    MIN_COMPACTIONS = 1

    def __init__(self, seed: int, budget: str):
        self.seed = seed
        self.size = self.SIZES[budget]
        self.datastore = CassandraLike()
        config = self.datastore.default_configuration().with_updates(
            memtable_cleanup_threshold=0.10,
            file_cache_size_in_mb=32,
            compaction_throughput_mb_per_sec=32,
            concurrent_compactors=4,
        )
        self.knobs = dataclasses.replace(
            self.datastore.effective_knobs(config),
            memtable_space_bytes=self.size["memtable_mb"] * MB,
        )
        self.spec = WorkloadSpec(
            read_ratio=self.READ_RATIO,
            n_keys=self.size["keys"],
            value_bytes=self.VALUE_BYTES,
            update_fraction=0.5,
            krd_mean_ops=20_000.0,
        )

    def build_fixtures(self, pace) -> dict:
        """Nothing is shared across repetitions: the set-up is the load."""
        return {}

    def prepare(self, rec=None, reference: bool = False):
        engine = LSMEngine(
            self.knobs, hardware=self.datastore.hardware, costs=self.datastore.costs
        )
        generator = OperationGenerator(self.spec, np.random.default_rng(self.seed))
        load = generator.load_batch(self.size["keys"])
        engine.execute_batch(load.kinds, load.key_names(), load.value_sizes)
        engine.idle_until_compact()
        return SimpleNamespace(
            rec=rec,
            engine=engine,
            generator=generator,
            stats0=dataclasses.replace(engine.stats),
            disk0=dataclasses.replace(engine.disk.stats),
            clock0=engine.clock.now,
        )

    def run(self, state) -> None:
        rec = state.rec
        span = rec.span if rec is not None else (lambda name: nullcontext())
        engine, generator = state.engine, state.generator
        n = self.size["block_ops"]
        clock = state.clock = StepClock(rec)
        state.user_bytes = 0
        clock.mark()
        for block_index in range(self.size["blocks"]):
            if rec is not None:
                rec.step = block_index
            with span("workload.gen"):
                block = generator.operation_batch(n)
                names = block.key_names()
            with span("lsm.exec"):
                engine.execute_batch(block.kinds, names, block.value_sizes)
            state.user_bytes += int(block.value_sizes.sum())
            clock.mark()

    def finish(self, state) -> None:
        pass

    def uninstrument(self) -> None:
        pass

    def observe(self, state) -> SimpleNamespace:
        engine = state.engine
        stats = {
            field.name: getattr(engine.stats, field.name) - getattr(state.stats0, field.name)
            for field in dataclasses.fields(engine.stats)
        }
        written = engine.disk.stats.seq_bytes_written - state.disk0.seq_bytes_written
        sim_seconds = engine.clock.now - state.clock0
        ops = self.size["blocks"] * self.size["block_ops"]
        digest = hashlib.sha256(
            json.dumps(
                [stats, engine.clock.now, engine.sstable_count, written],
                sort_keys=True,
            ).encode()
        ).hexdigest()
        lookups = stats["cache_hits"] + stats["cache_misses"]
        counts = {
            "workload.gen_ops": ops,
            "lsm.exec_ops": stats["reads"] + stats["writes"] + stats["deletes"],
            "lsm.flushes": stats["flushes"],
            "lsm.compactions": stats["compactions_completed"],
            "lsm.compaction_bytes": stats["compaction_bytes"],
            "lsm.write_amp": written / state.user_bytes,
            "lsm.tables_probed_per_read": stats["tables_probed"] / stats["reads"],
            "lsm.cache_hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
            "lsm.sstables_end": engine.sstable_count,
        }
        failures = []
        if counts["lsm.exec_ops"] != ops:
            failures.append(f"engine executed {counts['lsm.exec_ops']} of {ops} ops")
        if stats["flushes"] < self.MIN_FLUSHES:
            failures.append(f"only {stats['flushes']} flushes in the timed region")
        if stats["compactions_completed"] < self.MIN_COMPACTIONS:
            failures.append("no compaction completed in the timed region")
        # Nothing deletes, so every loaded key must still read back whole
        # through memtable, flushes and compactions.
        sample = np.random.default_rng(self.seed).integers(0, self.size["keys"], 64)
        for key_id in sample:
            value = engine.get(state.generator.key_dist.key_name(int(key_id)))
            if value is None or len(value) != self.VALUE_BYTES:
                failures.append(f"loaded key {int(key_id)} did not read back")
                break
        return SimpleNamespace(
            steps=state.clock.steps,
            kernels=state.clock.kernels,
            work_units=ops,
            sim_ops_per_s=ops / sim_seconds,
            digest=digest,
            counts=counts,
            failures=failures,
        )

    def probe(self, state) -> dict:
        """Pure-read then pure-write blocks on the end state (traced run)."""
        out = {}
        n = self.size["block_ops"]
        for name, read_ratio in (("lsm.read_us_per_op", 1.0), ("lsm.write_us_per_op", 0.0)):
            spent = 0.0
            for _ in range(self.PROBE_BLOCKS):
                block = state.generator.operation_batch(n, read_ratio=read_ratio)
                names = block.key_names()
                t0 = time.perf_counter()
                state.engine.execute_batch(block.kinds, names, block.value_sizes)
                spent += time.perf_counter() - t0
            out[name] = 1e6 * spent / (self.PROBE_BLOCKS * n)
        return out

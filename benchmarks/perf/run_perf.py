"""Search-stack and serve-stack microbenchmarks as perf gates.

Two scenarios:

* ``--scenario search`` (default) — the §4.8 speed claim: ensemble
  queries (rows/sec by batch size), a full GA search
  (:class:`ConfigurationOptimizer`, batched vs the scalar reference),
  the end-to-end ``Rafiki.recommend`` latency, and the decision-cost
  grid (cold search ms by ensemble size and GA budget).  Writes
  ``BENCH_search.json`` next to this script and appends this run to the
  ``history`` list of the file it overwrites.
* ``--scenario serve-scale`` — the vectorized op-stream hot path
  (:meth:`YCSBBenchmark.run_engine` batched vs scalar against the
  materialized LSM engine at read ratio 0.95, plus a ``mixed`` point at
  0.5 with flushes and a compaction among the measured ops), the
  sharded multi-tenant serve loop
  (:class:`MiddlewareScheduler` with a *persistent* process-pool
  backend vs the serial reference, including a bitwise
  result-equivalence check and the pool-reuse counters), and the
  content-addressed state-shipping protocol (a steady-state campaign
  whose per-round payload must collapse to O(1) fingerprint bytes once
  the blob has been broadcast — see
  :mod:`repro.runtime.stateship`), and the analytic substrate's cost
  (microseconds of wall clock per simulated second, single server and
  a 3-node RF=2 ring; recorded, not gated).  Writes ``BENCH_serve.json``
  at the repo root and appends this run to its ``history`` list.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py                # full budget
    PYTHONPATH=src python benchmarks/perf/run_perf.py --budget tiny  # CI smoke
    PYTHONPATH=src python benchmarks/perf/run_perf.py --budget tiny \
        --out /tmp/fresh.json --check benchmarks/perf/BENCH_search.json
    PYTHONPATH=src python benchmarks/perf/run_perf.py \
        --scenario serve-scale --budget tiny \
        --out /tmp/serve.json --check BENCH_serve.json

``--check`` compares the *dimensionless* metrics (the batched/scalar
and sharded/serial speedup ratios, plus the serve result-equivalence
bit) of a fresh run against a baseline file and exits non-zero only on
a gross regression (default tolerance 5x), so the CI job stays
flake-free across heterogeneous runners; wall-clock numbers are
recorded for trend-watching but never gated on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.bench.ycsb import YCSBBenchmark
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.policies import OraclePolicy
from repro.core.rafiki import Rafiki
from repro.core.search import ConfigurationOptimizer
from repro.core.surrogate import SurrogateModel
from repro.datastore import CassandraLike, Cluster
from repro.lsm.engine import LSMEngine
from repro.middleware import MiddlewareScheduler, TenantSpec
from repro.ml.ensemble import EnsembleConfig
from repro.runtime import EventBus
from repro.runtime.backend import ProcessPoolBackend
from repro.workload.generator import OperationGenerator
from repro.workload.spec import DELETE, READ, WorkloadSpec

PARAMS = list(CASSANDRA_KEY_PARAMETERS)

#: Budget knobs: (n_configs, ensemble_config, population, generations, repeats).
BUDGETS = {
    # Paper-scale: 20-net ensemble pruned to 14, default GA budget
    # (~3,400 evaluations) — the configuration the §4.8 claim is about.
    "default": dict(
        n_configs=25,
        ensemble=EnsembleConfig(),
        population=48,
        generations=70,
        repeats=3,
        batch_sizes=(1, 48, 512, 3400),
        # decision cost: the e2e benchmark's GA budget (48 x 16) and the
        # paper's (48 x 70), on the e2e fixture's ensemble (6 networks,
        # 4 after pruning) and the paper's (20 -> 14).
        decision=dict(n_networks=(6, 20), generations=(16, 70), regimes=20),
        # serve-scale: op-stream scale + tenant fan-out.  The op-stream
        # shape is the locked MG-RAST-like scenario the >=5x claim is
        # pinned on; the serve shape is 8 tenants over 4 workers.  The
        # serve searches carry their own GA budget: every window hits a
        # fresh regime, so per-window search cost is what the sharding
        # amortizes.
        op_stream=dict(n_keys=100_000, load_keys=100_000, n_ops=30_000),
        serve=dict(tenants=8, windows=6, workers=4, population=48, generations=70),
        # state-ship: constant per-tenant regimes, so every round after
        # the cache warms is pure steady state — the payload column the
        # >=10x reduction claim is pinned on.
        state_ship=dict(
            tenants=6, windows=8, workers=4, population=48, generations=70
        ),
        substrate=dict(load_keys=2_000_000, simulated_seconds=2_000, repeats=7),
    ),
    # CI smoke: small ensemble, short search; ratios stay meaningful,
    # wall time stays in seconds.
    "tiny": dict(
        n_configs=12,
        ensemble=EnsembleConfig(n_networks=6, max_epochs=40),
        population=16,
        generations=10,
        repeats=2,
        batch_sizes=(1, 16, 256),
        decision=dict(n_networks=(6,), generations=(10,), regimes=4),
        op_stream=dict(n_keys=20_000, load_keys=8_000, n_ops=4_000),
        # Deliberately meatier searches than the GA smoke above: a
        # too-cheap search would measure process-pool overhead, not the
        # serve fan-out.
        serve=dict(tenants=4, windows=3, workers=2, population=64, generations=300),
        state_ship=dict(
            tenants=4, windows=6, workers=2, population=16, generations=10
        ),
        substrate=dict(load_keys=200_000, simulated_seconds=500, repeats=5),
    ),
}


def build_surrogate(budget: dict) -> SurrogateModel:
    """Train on a synthetic surface — benchmark the search, not the sim."""
    space = cassandra_space()
    rng = np.random.default_rng(2017)
    samples = []
    for _ in range(budget["n_configs"]):
        config = space.sample_configuration(rng, PARAMS)
        vec = config.to_vector(PARAMS)
        for rr in np.linspace(0.0, 1.0, 5):
            target = (
                60_000
                + 30_000 * vec[2]
                - 20_000 * (vec[1] - 0.5) ** 2
                + 5_000 * rr
            )
            samples.append(
                PerformanceSample(
                    workload=WorkloadSpec(read_ratio=float(rr)),
                    configuration=config,
                    throughput=float(target),
                )
            )
    model = SurrogateModel(space, PARAMS, budget["ensemble"])
    return model.fit(PerformanceDataset(samples, PARAMS), seed=7)


def timed(fn, repeats: int) -> float:
    """Best-of-N wall seconds (min is the stablest location estimate)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_ensemble_rows(surrogate: SurrogateModel, budget: dict) -> dict:
    rng = np.random.default_rng(0)
    out = {}
    for n in budget["batch_sizes"]:
        rows = rng.uniform(0.0, 1.0, size=(n, len(PARAMS) + 1))
        reps = max(3, 2000 // n)
        dt = timed(lambda: surrogate.predict_mean_std(rows), reps)
        out[str(n)] = {
            "rows_per_sec": n / dt,
            "us_per_row": 1e6 * dt / n,
        }
    return out


def bench_ga_search(surrogate: SurrogateModel, budget: dict) -> dict:
    common = dict(
        population_size=budget["population"],
        generations=budget["generations"],
        uncertainty_penalty=0.5,
    )
    fast = ConfigurationOptimizer(surrogate, batched=True, **common)
    ref = ConfigurationOptimizer(surrogate, batched=False, **common)
    t_fast = timed(lambda: fast.optimize(0.6, seed=11), budget["repeats"])
    t_ref = timed(lambda: ref.optimize(0.6, seed=11), budget["repeats"])
    result = fast.optimize(0.6, seed=11)
    return {
        "population": budget["population"],
        "generations": budget["generations"],
        "uncertainty_penalty": 0.5,
        "evaluations": result.evaluations,
        "batched_seconds": t_fast,
        "scalar_seconds": t_ref,
        "speedup_batched_vs_scalar": t_ref / t_fast,
        "batched_us_per_evaluation": 1e6 * t_fast / result.evaluations,
    }


def bench_recommend(surrogate: SurrogateModel, budget: dict) -> dict:
    rafiki = Rafiki(CassandraLike(), surrogate, PARAMS, seed=0)
    rafiki.optimizer.population_size = budget["population"]
    rafiki.optimizer.generations = budget["generations"]

    def run():
        rafiki.cache.clear()
        rafiki.recommend(0.72)

    cold = timed(run, budget["repeats"])
    rafiki.recommend(0.72)
    warm = timed(lambda: rafiki.recommend(0.72), 10)
    return {
        "cold_seconds": cold,
        "cached_seconds": warm,
    }


def bench_decision_cost(surrogate: SurrogateModel, budget: dict) -> dict:
    """Milliseconds per cold ``Rafiki.recommend`` as the serve loop runs
    it (population from the budget, no uncertainty penalty), by ensemble
    size and GA generations — the per-window decision cost the paper
    puts at ~1.8 s (§4.8).  ``surrogate`` is reused for the grid cell
    with its ensemble size; the others are trained here.
    """
    shape = budget["decision"]
    read_ratios = [float(rr) for rr in np.linspace(0.02, 0.98, shape["regimes"])]
    out = {}
    for n_networks in shape["n_networks"]:
        if n_networks == budget["ensemble"].n_networks:
            model = surrogate
        else:
            config = EnsembleConfig(
                n_networks=n_networks, max_epochs=budget["ensemble"].max_epochs
            )
            model = build_surrogate({**budget, "ensemble": config})
        rafiki = Rafiki(
            CassandraLike(), model, PARAMS, seed=0,
            rr_cache_resolution=0.001, cache_capacity=512,
        )
        rafiki.optimizer.population_size = budget["population"]
        for generations in shape["generations"]:
            rafiki.optimizer.generations = generations

            def run():
                rafiki.cache.clear()
                for rr in read_ratios:
                    rafiki.recommend(rr)

            per_search = timed(run, budget["repeats"]) / len(read_ratios)
            key = (
                f"{model.ensemble.active_count}_members_"
                f"{budget['population']}x{generations}"
            )
            out[key] = {"cold_search_ms": 1e3 * per_search}
    return out


def bench_op_stream(budget: dict) -> dict:
    """Batched vs scalar op-stream execution on the materialized engine.

    The locked scenario: a read-heavy MG-RAST-like workload against the
    default Cassandra configuration, same seed both ways — the engine
    paths are bit-identical, so only wall time differs.
    """
    shape = budget["op_stream"]
    workload = WorkloadSpec(
        name="mgrast",
        n_keys=shape["n_keys"],
        read_ratio=0.95,
        value_bytes=1000,
        update_fraction=0.5,
        delete_fraction=0.0,
        krd_mean_ops=5000,
    )
    datastore = CassandraLike()
    config = datastore.default_configuration()
    bench = YCSBBenchmark(datastore)

    def run(batched):
        return bench.run_engine(
            config,
            workload,
            n_ops=shape["n_ops"],
            load_keys=shape["load_keys"],
            seed=7,
            batched=batched,
        )

    t_scalar = timed(lambda: run(False), budget["repeats"])
    t_batched = timed(lambda: run(True), budget["repeats"])
    return {
        **shape,
        "scalar_seconds": t_scalar,
        "batched_seconds": t_batched,
        "speedup_batched_vs_scalar": t_scalar / t_batched,
        "batched_ops_per_wall_second": shape["n_ops"] / t_batched,
        "mixed": bench_op_stream_mixed(shape, budget["repeats"]),
    }


def bench_op_stream_mixed(shape: dict, repeats: int, block_ops: int = 512) -> dict:
    """The op stream at read ratio 0.5 with background work in it.

    Under the default configuration the 0.95 point above never leaves the
    memtable.  Here memtable space is scaled to the run (the measured
    writes fill it about 24 times; at 12 no compaction finishes inside
    half a simulated second), so flushes and size-tiered compactions
    land among the measured ops and reads probe SSTables under busy
    background — the engine's normal traffic.  Only the ops are
    timed (load and settling are not); both paths consume the same
    generated blocks.
    """
    read_ratio, value_bytes = 0.5, 1000
    datastore = CassandraLike()
    knobs = datastore.effective_knobs(datastore.default_configuration())
    flush_bytes = shape["n_ops"] * (1.0 - read_ratio) * value_bytes / 24.0
    knobs = dataclasses.replace(
        knobs,
        memtable_space_bytes=int(flush_bytes / knobs.memtable_cleanup_threshold),
    )
    workload = WorkloadSpec(
        name="mixed",
        n_keys=shape["n_keys"],
        read_ratio=read_ratio,
        value_bytes=value_bytes,
        update_fraction=0.5,
        krd_mean_ops=5000,
    )

    def run(batched: bool):
        engine = LSMEngine(knobs, hardware=datastore.hardware, costs=datastore.costs)
        gen = OperationGenerator(workload, np.random.default_rng(7))
        load = gen.load_batch(shape["load_keys"])
        engine.execute_batch(load.kinds, load.key_names(), load.value_sizes)
        engine.idle_until_compact()
        before = dataclasses.replace(engine.stats)
        t0 = time.perf_counter()
        for done in range(0, shape["n_ops"], block_ops):
            block = gen.operation_batch(min(block_ops, shape["n_ops"] - done))
            if batched:
                engine.execute_batch(block.kinds, block.key_names(), block.value_sizes)
                continue
            for op in block.iter_operations():
                if op.kind == READ:
                    engine.get(op.key)
                elif op.kind == DELETE:
                    engine.delete(op.key)
                else:
                    engine.put(op.key, bytes(op.value_bytes))
        seconds = time.perf_counter() - t0
        return seconds, engine.stats.flushes - before.flushes, (
            engine.stats.compactions_completed - before.compactions_completed
        )

    scalar = min(run(False) for _ in range(repeats))
    batched = min(run(True) for _ in range(repeats))
    if scalar[1:] != batched[1:] or 0 in batched[1:]:
        raise SystemExit(
            f"mixed op stream: flushes/compactions scalar {scalar[1:]}, "
            f"batched {batched[1:]} - expected equal and non-zero"
        )
    return {
        "read_ratio": read_ratio,
        "memtable_space_bytes": knobs.memtable_space_bytes,
        "flushes": batched[1],
        "compactions_completed": batched[2],
        "scalar_seconds": scalar[0],
        "batched_seconds": batched[0],
        "scalar_us_per_op": 1e6 * scalar[0] / shape["n_ops"],
        "batched_us_per_op": 1e6 * batched[0] / shape["n_ops"],
        "speedup_batched_vs_scalar": scalar[0] / batched[0],
    }


def _serve_rr_series(tenants: int, windows: int) -> list:
    """Distinct read-ratio per (tenant, window): every window searches.

    Values are spread over [0.05, 0.95] with spacing wider than the
    0.01 cache resolution, so no two windows share a quantized regime
    and the serial/sharded comparison measures search fan-out, not
    cache luck.
    """
    total = tenants * windows
    grid = [0.05 + 0.90 * i / (total - 1) for i in range(total)]
    return [grid[t * windows : (t + 1) * windows] for t in range(tenants)]


def _run_serve_campaign(surrogate: SurrogateModel, budget: dict, backend) -> tuple:
    """One full multi-tenant campaign; returns (results summary, events)."""
    shape = budget["serve"]
    rafiki = Rafiki(
        CassandraLike(), surrogate, PARAMS, seed=0, rr_cache_resolution=0.01
    )
    rafiki.optimizer.population_size = shape["population"]
    rafiki.optimizer.generations = shape["generations"]
    events = EventBus()
    log = []
    events.subscribe(log.append)
    scheduler = MiddlewareScheduler(
        CassandraLike(), rafiki, events=events, backend=backend
    )
    series = _serve_rr_series(shape["tenants"], shape["windows"])
    workload = WorkloadSpec(read_ratio=0.5, n_keys=100_000)
    for t in range(shape["tenants"]):
        scheduler.add_tenant(
            TenantSpec(
                tenant_id=f"t{t}",
                rr_series=series[t],
                base_workload=workload,
                seed=t,
                window_seconds=30,
                load=False,
                policy=OraclePolicy(),
            )
        )
    results = scheduler.run()
    summary = {
        tid: [
            (
                e.window_index,
                e.read_ratio,
                e.reconfigured,
                e.mean_throughput,
                e.rolled_back,
                e.degraded,
                str(e.configuration),
            )
            for e in r.events
        ]
        for tid, r in results.items()
    }
    # backend.state_* topics are exempt from the serial == sharded
    # event-sequence contract (blob placement depends on OS worker
    # scheduling), exactly as in tests/test_sharded_scheduler.py.
    log_view = [
        (e.topic, e.message)
        for e in log
        if not e.topic.startswith("backend.state")
    ]
    return summary, log_view, scheduler


def _children_cpu_seconds() -> float:
    """CPU seconds burned by *reaped* child processes so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def bench_serve_scale(surrogate: SurrogateModel, budget: dict) -> dict:
    """Sharded serve loop vs the serial reference, plus equivalence.

    Two speedup figures are recorded.  ``speedup_sharded_vs_serial``
    compares wall clocks directly — on a host with at least as many
    cores as workers it is the real speedup, but on a starved host the
    workers time-slice one another and the ratio degenerates below 1
    regardless of how good the sharding is.  To keep the trajectory
    meaningful everywhere, ``speedup_sharded_vs_serial_projected``
    applies the critical-path law to *CPU-time* measurements, which
    contention cannot inflate: serial parent CPU seconds over (total
    worker CPU seconds / workers + sharded parent CPU seconds).  The
    two converge on an idle multi-core host.
    """
    shape = budget["serve"]

    t0, c0 = time.perf_counter(), time.process_time()
    serial_summary, serial_log, _ = _run_serve_campaign(surrogate, budget, None)
    t_serial = time.perf_counter() - t0
    cpu_serial = time.process_time() - c0

    # getrusage(RUSAGE_CHILDREN) only sees *terminated* children, so the
    # worker-CPU window must bracket the pool's whole life.
    children_cpu0 = _children_cpu_seconds()
    backend = ProcessPoolBackend(workers=shape["workers"])
    # Spawn the worker processes before the clock starts: a long-lived
    # serve deployment pays that cost once, not per campaign.
    backend.warm()
    t0, c0 = time.perf_counter(), time.process_time()
    sharded_summary, sharded_log, scheduler = _run_serve_campaign(
        surrogate, budget, backend
    )
    t_sharded = time.perf_counter() - t0
    cpu_parent_sharded = time.process_time() - c0
    backend.close()
    cpu_workers = _children_cpu_seconds() - children_cpu0

    projected_wall = cpu_workers / shape["workers"] + cpu_parent_sharded
    return {
        **shape,
        "cpu_count": os.cpu_count(),
        "serial_seconds": t_serial,
        "sharded_seconds": t_sharded,
        "speedup_sharded_vs_serial": t_serial / t_sharded,
        "serial_cpu_seconds": cpu_serial,
        "sharded_worker_cpu_seconds": cpu_workers,
        "sharded_parent_cpu_seconds": cpu_parent_sharded,
        "speedup_sharded_vs_serial_projected": cpu_serial / projected_wall,
        # Pool lifecycle: one persistent pool must serve every round.
        "pool_reuse": {
            "persistent": backend.persistent,
            "pools_created": backend.pools_created,
            "map_calls": backend.map_calls,
        },
        # Worst case for the shipper — every window is a fresh regime,
        # so the cache (and therefore the fingerprint) changes every
        # round; the steady-state win is measured by
        # :func:`bench_state_shipping` below.
        "state_shipping": scheduler.state_report(),
        # Bitwise serve equivalence: per-tenant window records and the
        # full event log must match the serial reference exactly.
        "identical_results": bool(
            serial_summary == sharded_summary and serial_log == sharded_log
        ),
    }


def _run_state_campaign(
    surrogate: SurrogateModel, shape: dict, backend, round_payloads=None
) -> tuple:
    """A steady-state serve: each tenant re-enters one fixed regime.

    After round 0 (searches fill the cache) and round 1 (the grown
    cache re-fingerprints once), every round's payload is fingerprints
    only.  ``round_payloads``, when given, receives the *measured*
    shipped bytes per window round, sampled off the shipper counters at
    every ``scheduler.window`` event.
    """
    rafiki = Rafiki(
        CassandraLike(), surrogate, PARAMS, seed=0, rr_cache_resolution=0.01
    )
    rafiki.optimizer.population_size = shape["population"]
    rafiki.optimizer.generations = shape["generations"]
    events = EventBus()
    log = []
    events.subscribe(log.append)
    scheduler = MiddlewareScheduler(
        CassandraLike(), rafiki, events=events, backend=backend
    )
    if round_payloads is not None:
        def sample_round(_event):
            total = scheduler.state_report()["payload_bytes"]
            round_payloads.append(total - sum(round_payloads))

        events.subscribe(sample_round, topic="scheduler.window")
    workload = WorkloadSpec(read_ratio=0.5, n_keys=100_000)
    for t in range(shape["tenants"]):
        rr = 0.05 + 0.90 * t / max(shape["tenants"] - 1, 1)
        scheduler.add_tenant(
            TenantSpec(
                tenant_id=f"t{t}",
                rr_series=[rr] * shape["windows"],
                base_workload=workload,
                seed=t,
                window_seconds=30,
                load=False,
                policy=OraclePolicy(),
            )
        )
    results = scheduler.run()
    summary = {
        tid: [
            (e.window_index, e.read_ratio, e.mean_throughput, str(e.configuration))
            for e in r.events
        ]
        for tid, r in results.items()
    }
    log_view = [
        (e.topic, e.message)
        for e in log
        if not e.topic.startswith("backend.state")
    ]
    return summary, log_view, scheduler


def bench_state_shipping(surrogate: SurrogateModel, budget: dict) -> dict:
    """Steady-state payload bytes per round, vs full-blob shipping.

    ``payload_bytes_per_round.steady_state`` is the cheapest measured
    round strictly after the warm-up rounds — tenants x 16 fingerprint
    bytes when the protocol works, independent of blob size — and
    ``reduction_vs_full_blob`` is the per-round byte reduction against
    shipping the blob in every task (what the loop did before
    content-addressed shipping).  ``steady_state_hit_fraction`` is the
    share of fingerprint-only tasks a worker served from its blob cache
    (misses are one-shot refetches after a worker restart or an unlucky
    first-round task placement).
    """
    shape = budget["state_ship"]
    serial_summary, serial_log, _ = _run_state_campaign(surrogate, shape, None)
    backend = ProcessPoolBackend(workers=shape["workers"])
    backend.warm()
    round_payloads: list = []
    sharded_summary, sharded_log, scheduler = _run_state_campaign(
        surrogate, shape, backend, round_payloads=round_payloads
    )
    backend.close()
    report = scheduler.state_report()
    # Rounds 0-1 broadcast blobs (initial state, then the grown cache);
    # the steady-state claim is about every round after that.
    steady_state = float(min(round_payloads[2:]))
    full_blob = float(round_payloads[0])
    return {
        **shape,
        "round_payload_bytes": [float(b) for b in round_payloads],
        "payload_bytes_per_round": {
            "first_round": full_blob,
            "steady_state": steady_state,
            "full_blob_equivalent": full_blob,
            "reduction_vs_full_blob": full_blob / steady_state,
        },
        "steady_state_hit_fraction": report["state_hits"]
        / max(report["fingerprint_tasks"], 1),
        "shipper": report,
        "identical_results": bool(
            serial_summary == sharded_summary and serial_log == sharded_log
        ),
    }


def bench_substrate(budget: dict) -> dict:
    """Wall-clock microseconds per simulated second of the analytic
    substrate — what executing a window costs, next to what deciding it
    costs (``decision_cost`` in the search scenario).  One loaded default
    Cassandra server, and a 3-node RF=2 ring of them, stepped at read
    ratio 0.5; best of ``repeats`` (>= 5) runs.
    """
    shape = budget["substrate"]
    seconds = shape["simulated_seconds"]
    cassandra = CassandraLike()
    config = cassandra.default_configuration()
    server = cassandra.new_analytic_instance(config, seed=1)
    ring = Cluster(
        cassandra, config, n_nodes=3, replication_factor=2, n_shooters=3, seed=1
    )
    out = dict(shape)
    for name, target in (("single_node", server), ("ring_3_nodes_rf2", ring)):
        target.load(shape["load_keys"])
        best = timed(lambda: target.run(0.5, seconds), shape["repeats"])
        out[f"{name}_us_per_simulated_second"] = 1e6 * best / seconds
    return out


def _commit() -> str:
    """``git describe --always --dirty`` of the measured checkout — the
    one ``repro`` was imported from, which a before/after pair points
    elsewhere than this script."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(repro.__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def with_history(payload: dict, previous: Path, headline: dict) -> dict:
    """``payload`` plus the ``history`` of the file it replaces, extended
    by this run's ``headline`` numbers — so a regression shows as a step
    in the list, not as a silently overwritten value."""
    history = []
    if previous.exists():
        history = json.loads(previous.read_text()).get("history", [])
    entry = {
        "commit": _commit(),
        "budget": payload["meta"]["budget"],
        "cpu_count": payload["meta"]["cpu_count"],
        **headline,
    }
    return {**payload, "history": [*history, entry]}


def _meta(budget_name: str) -> dict:
    return {
        "budget": budget_name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }


def run_suite(budget_name: str) -> dict:
    budget = BUDGETS[budget_name]
    surrogate = build_surrogate(budget)
    return {
        "meta": _meta(budget_name),
        "ensemble_query": bench_ensemble_rows(surrogate, budget),
        "ga_search": bench_ga_search(surrogate, budget),
        "recommend": bench_recommend(surrogate, budget),
        "decision_cost": bench_decision_cost(surrogate, budget),
    }


def run_serve_suite(budget_name: str) -> dict:
    budget = BUDGETS[budget_name]
    surrogate = build_surrogate(budget)
    return {
        "meta": _meta(budget_name),
        "op_stream": bench_op_stream(budget),
        "serve_scale": bench_serve_scale(surrogate, budget),
        "state_shipping": bench_state_shipping(surrogate, budget),
        "substrate": bench_substrate(budget),
    }


#: Dimensionless metrics gated by --check, per scenario: (path into the
#: payload, floor).  A fresh value may be up to `tolerance` times worse
#: than baseline; the absolute floor catches a batched/sharded path that
#: stopped being faster at all.  ``identical_results`` is a bool, so its
#: floor of 1.0 makes any serve-equivalence break a hard failure.
GATED_METRICS = {
    "search": [
        (("ga_search", "speedup_batched_vs_scalar"), 1.0),
    ],
    "serve-scale": [
        (("op_stream", "speedup_batched_vs_scalar"), 1.0),
        (("serve_scale", "speedup_sharded_vs_serial"), 1.0),
        (("serve_scale", "speedup_sharded_vs_serial_projected"), 1.0),
        (("serve_scale", "identical_results"), 1.0),
        # Steady-state rounds must ship O(1) bytes between retrains
        # (the >=10x per-round reduction floor) and workers must serve
        # fingerprint-only tasks from their blob caches.
        (
            ("state_shipping", "payload_bytes_per_round", "reduction_vs_full_blob"),
            10.0,
        ),
        (("state_shipping", "steady_state_hit_fraction"), 0.5),
        (("state_shipping", "identical_results"), 1.0),
    ],
}


def check_against(
    fresh: dict, baseline_path: Path, tolerance: float, scenario: str
) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for path, floor in GATED_METRICS[scenario]:
        f, b = fresh, baseline
        for key in path:
            f = f[key]
            b = b[key]
        name = ".".join(path)
        if path[-1] == "speedup_sharded_vs_serial":
            workers = fresh["serve_scale"]["workers"]
            cpus = fresh["meta"].get("cpu_count") or 1
            if cpus <= workers:
                # A measured wall ratio is a coin flip unless every
                # worker and the parent have a core of their own: only
                # the baseline comparison applies.  The projected
                # (CPU-time) ratio and identical_results still gate the
                # sharding itself.
                print(f"note: {name} floor not applied ({cpus} cpus, {workers} workers)")
                floor = 0.0
        if f < floor:
            failures.append(f"{name}: {f:.2f} below hard floor {floor:.2f}")
        elif f * tolerance < b:
            failures.append(
                f"{name}: {f:.2f} is >{tolerance:.0f}x worse than baseline {b:.2f}"
            )
        else:
            print(f"ok: {name} = {f:.2f} (baseline {b:.2f})")
    for msg in failures:
        print(f"PERF REGRESSION: {msg}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario", choices=sorted(GATED_METRICS), default="search"
    )
    parser.add_argument("--budget", choices=sorted(BUDGETS), default="default")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="where to write the JSON payload (default: the scenario's "
        "checked-in baseline location)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help="baseline JSON to gate dimensionless metrics against",
    )
    parser.add_argument("--tolerance", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (
            Path(__file__).parent / "BENCH_search.json"
            if args.scenario == "search"
            # The serve baseline lives at the repo root: it pins the
            # headline op-stream and serve-loop speedups of the PR.
            else Path(__file__).parents[2] / "BENCH_serve.json"
        )

    if args.scenario == "search":
        payload = run_suite(args.budget)
        headline = {
            "batched_us_per_evaluation": payload["ga_search"]["batched_us_per_evaluation"],
            "speedup_batched_vs_scalar": payload["ga_search"]["speedup_batched_vs_scalar"],
            "cold_recommend_seconds": payload["recommend"]["cold_seconds"],
        }
    else:
        payload = run_serve_suite(args.budget)
        substrate = payload["substrate"]
        headline = {
            key: substrate[key]
            for key in (
                "single_node_us_per_simulated_second",
                "ring_3_nodes_rf2_us_per_simulated_second",
            )
        }
        headline["serial_seconds"] = payload["serve_scale"]["serial_seconds"]
        ops = payload["op_stream"]
        headline["op_stream_batched_us_per_op"] = (
            1e6 * ops["batched_seconds"] / (ops["n_ops"] + ops["load_keys"])
        )
        headline["op_stream_speedup_batched_vs_scalar"] = ops["speedup_batched_vs_scalar"]
        for key in ("scalar_us_per_op", "batched_us_per_op"):
            headline[f"op_stream_mixed_{key}"] = ops["mixed"][key]
    payload = with_history(payload, args.out, headline)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, default=float) + "\n")

    if args.scenario == "search":
        ga = payload["ga_search"]
        print(
            f"GA search ({ga['evaluations']} evals): "
            f"batched {ga['batched_seconds']:.3f}s vs scalar {ga['scalar_seconds']:.3f}s "
            f"-> {ga['speedup_batched_vs_scalar']:.1f}x, "
            f"{ga['batched_us_per_evaluation']:.1f} us/eval"
        )
    else:
        ops = payload["op_stream"]
        sv = payload["serve_scale"]
        print(
            f"op stream ({ops['n_ops']} ops): "
            f"batched {ops['batched_seconds']:.3f}s vs scalar {ops['scalar_seconds']:.3f}s "
            f"-> {ops['speedup_batched_vs_scalar']:.1f}x; mixed (read ratio "
            f"{ops['mixed']['read_ratio']}, {ops['mixed']['flushes']} flushes, "
            f"{ops['mixed']['compactions_completed']} compactions): batched "
            f"{ops['mixed']['batched_us_per_op']:.1f} vs scalar "
            f"{ops['mixed']['scalar_us_per_op']:.1f} us/op"
        )
        print(
            f"serve scale ({sv['tenants']} tenants x {sv['windows']} windows, "
            f"{sv['workers']} workers): "
            f"sharded {sv['sharded_seconds']:.3f}s vs serial {sv['serial_seconds']:.3f}s "
            f"-> {sv['speedup_sharded_vs_serial']:.1f}x wall "
            f"({sv['speedup_sharded_vs_serial_projected']:.1f}x projected on "
            f"{sv['workers']} cores), "
            f"identical_results={sv['identical_results']}"
        )
        ship = payload["state_shipping"]
        per_round = ship["payload_bytes_per_round"]
        print(
            f"state shipping ({ship['tenants']} tenants x {ship['windows']} "
            f"windows): {per_round['first_round']:,.0f} bytes round 0 -> "
            f"{per_round['steady_state']:,.0f} bytes steady state "
            f"({per_round['reduction_vs_full_blob']:.0f}x reduction), "
            f"hit fraction {ship['steady_state_hit_fraction']:.2f}, "
            f"identical_results={ship['identical_results']}"
        )
        print(
            "substrate: "
            f"{substrate['single_node_us_per_simulated_second']:.1f} us per "
            "simulated second (single node), "
            f"{substrate['ring_3_nodes_rf2_us_per_simulated_second']:.1f} us "
            "(3-node RF=2 ring)"
        )
    print(f"wrote {args.out}")

    if args.check is not None:
        return check_against(payload, args.check, args.tolerance, args.scenario)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

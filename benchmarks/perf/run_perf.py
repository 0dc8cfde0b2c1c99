"""Records what the contract benchmark (``benchmarks/e2e``) does not time.

The contract harness measures whole campaigns and attributes their wall
clock to layers; this script records the micro-costs under those layers
and keeps their trajectory in the ``history`` list of the repo-root
``BENCH_*.json`` it overwrites.  Nothing here is gated: a run fails only
on an exception (for instance a ``mixed`` op stream that never flushed).

* ``--scenario search`` (default) — the §4.8 speed claim: ensemble
  queries (rows/sec by batch size), a full GA search
  (:class:`ConfigurationOptimizer`), the end-to-end
  ``Rafiki.recommend`` latency, and the decision-cost grid (cold search
  ms by ensemble size and GA budget).  Writes ``BENCH_search.json``.
* ``--scenario serve-scale`` — what executing a window costs: the op
  stream on the materialized LSM engine (:meth:`YCSBBenchmark.run_engine`
  at read ratio 0.95, plus a ``mixed`` point at 0.5 with flushes and a
  compaction among the measured ops) and the analytic substrate
  (microseconds of wall clock per simulated second, single server and a
  3-node RF=2 ring).  Writes ``BENCH_serve.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py                # full budget
    PYTHONPATH=src python benchmarks/perf/run_perf.py --budget tiny  # CI smoke
    PYTHONPATH=src python benchmarks/perf/run_perf.py \
        --scenario serve-scale --budget tiny --out /tmp/serve.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

import repro
from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.bench.ycsb import YCSBBenchmark
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.rafiki import Rafiki
from repro.core.search import ConfigurationOptimizer
from repro.core.surrogate import SurrogateModel
from repro.datastore import CassandraLike, Cluster
from repro.lsm.engine import LSMEngine
from repro.ml.ensemble import EnsembleConfig
from repro.workload.generator import OperationGenerator
from repro.workload.spec import WorkloadSpec

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
        # serve-scale: the op-stream shape is the MG-RAST-like scenario
        # the history entries were all recorded on.
        op_stream=dict(n_keys=100_000, load_keys=100_000, n_ops=30_000),
        substrate=dict(load_keys=2_000_000, simulated_seconds=2_000, repeats=7),
    ),
    # CI smoke: small ensemble, short search; wall time stays in seconds.
    "tiny": dict(
        n_configs=12,
        ensemble=EnsembleConfig(n_networks=6, max_epochs=40),
        population=16,
        generations=10,
        repeats=2,
        batch_sizes=(1, 16, 256),
        decision=dict(n_networks=(6,), generations=(10,), regimes=4),
        op_stream=dict(n_keys=20_000, load_keys=8_000, n_ops=4_000),
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
    optimizer = ConfigurationOptimizer(
        surrogate,
        population_size=budget["population"],
        generations=budget["generations"],
        uncertainty_penalty=0.5,
    )
    seconds = timed(lambda: optimizer.optimize(0.6, seed=11), budget["repeats"])
    evaluations = optimizer.optimize(0.6, seed=11).evaluations
    return {
        "population": budget["population"],
        "generations": budget["generations"],
        "uncertainty_penalty": 0.5,
        "evaluations": evaluations,
        "batched_seconds": seconds,
        "batched_us_per_evaluation": 1e6 * seconds / evaluations,
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
    """Op-stream execution on the materialized engine: a read-heavy
    MG-RAST-like workload against the default Cassandra configuration
    (load phase included in the timed region), and the ``mixed`` point."""
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
    seconds = timed(
        lambda: bench.run_engine(
            config, workload, n_ops=shape["n_ops"], load_keys=shape["load_keys"], seed=7
        ),
        budget["repeats"],
    )
    return {
        **shape,
        "batched_seconds": seconds,
        "batched_ops_per_wall_second": shape["n_ops"] / seconds,
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
    timed (load and settling are not).
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

    def run():
        engine = LSMEngine(knobs, hardware=datastore.hardware, costs=datastore.costs)
        gen = OperationGenerator(workload, np.random.default_rng(7))
        load = gen.load_batch(shape["load_keys"])
        engine.execute_batch(load.kinds, load.key_names(), load.value_sizes)
        engine.idle_until_compact()
        before = dataclasses.replace(engine.stats)
        t0 = time.perf_counter()
        for done in range(0, shape["n_ops"], block_ops):
            block = gen.operation_batch(min(block_ops, shape["n_ops"] - done))
            engine.execute_batch(block.kinds, block.key_names(), block.value_sizes)
        seconds = time.perf_counter() - t0
        return seconds, engine.stats.flushes - before.flushes, (
            engine.stats.compactions_completed - before.compactions_completed
        )

    seconds, flushes, compactions = min(run() for _ in range(repeats))
    if flushes == 0 or compactions == 0:
        raise SystemExit(
            f"mixed op stream: {flushes} flushes, {compactions} compactions "
            "among the measured ops - expected both non-zero"
        )
    return {
        "read_ratio": read_ratio,
        "memtable_space_bytes": knobs.memtable_space_bytes,
        "flushes": flushes,
        "compactions_completed": compactions,
        "batched_seconds": seconds,
        "batched_us_per_op": 1e6 * seconds / shape["n_ops"],
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
    ring = Cluster(cassandra, config, n_nodes=3, replication_factor=2, seed=1)
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
    return {
        "meta": _meta(budget_name),
        "op_stream": bench_op_stream(budget),
        "substrate": bench_substrate(budget),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario", choices=("search", "serve-scale"), default="search"
    )
    parser.add_argument("--budget", choices=sorted(BUDGETS), default="default")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="where to write the JSON payload (default: the scenario's "
        "checked-in BENCH_*.json at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        name = "BENCH_search.json" if args.scenario == "search" else "BENCH_serve.json"
        args.out = Path(__file__).parents[2] / name

    if args.scenario == "search":
        payload = run_suite(args.budget)
        ga = payload["ga_search"]
        headline = {
            "batched_us_per_evaluation": ga["batched_us_per_evaluation"],
            "cold_recommend_seconds": payload["recommend"]["cold_seconds"],
        }
        summary = (
            f"GA search ({ga['evaluations']} evals): {ga['batched_seconds']:.3f}s, "
            f"{ga['batched_us_per_evaluation']:.1f} us/eval; cold recommend "
            f"{1e3 * payload['recommend']['cold_seconds']:.1f} ms"
        )
    else:
        payload = run_serve_suite(args.budget)
        substrate, ops = payload["substrate"], payload["op_stream"]
        headline = {
            "single_node_us_per_simulated_second": substrate[
                "single_node_us_per_simulated_second"
            ],
            "ring_3_nodes_rf2_us_per_simulated_second": substrate[
                "ring_3_nodes_rf2_us_per_simulated_second"
            ],
            "op_stream_batched_us_per_op": 1e6
            * ops["batched_seconds"]
            / (ops["n_ops"] + ops["load_keys"]),
            "op_stream_mixed_batched_us_per_op": ops["mixed"]["batched_us_per_op"],
        }
        summary = (
            f"op stream ({ops['n_ops']} ops): {ops['batched_seconds']:.3f}s; mixed "
            f"(read ratio {ops['mixed']['read_ratio']}, {ops['mixed']['flushes']} "
            f"flushes, {ops['mixed']['compactions_completed']} compactions): "
            f"{ops['mixed']['batched_us_per_op']:.1f} us/op\n"
            "substrate: "
            f"{substrate['single_node_us_per_simulated_second']:.1f} us per "
            "simulated second (single node), "
            f"{substrate['ring_3_nodes_rf2_us_per_simulated_second']:.1f} us "
            "(3-node RF=2 ring)"
        )
    payload = with_history(payload, args.out, headline)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, default=float) + "\n")
    print(summary)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface for the Rafiki middleware.

The offline/online split of the paper maps onto subcommands::

    python -m repro collect   --datastore cassandra --out dataset.json
    python -m repro train     --dataset dataset.json --out surrogate.json
    python -m repro recommend --surrogate surrogate.json --read-ratio 0.9
    python -m repro replay    --surrogate surrogate.json --hours 24
    python -m repro serve     --surrogate surrogate.json --manifest tenants.toml
    python -m repro characterize --hours 24
    python -m repro verify-artifact dataset.json

``collect`` and ``train`` produce portable JSON artifacts; ``recommend``
is the online call a datastore operator (or agent) makes when the
workload shifts.  ``collect`` and ``train`` accept ``--workers N`` to
run the campaign / ensemble training on a process pool with
bitwise-identical results.

``replay`` and ``serve`` are the online service entry points, both
running on the middleware layer (:mod:`repro.middleware`): ``replay``
races one tuned tenant against a static-default baseline on the same
trace, while ``serve`` hosts a whole tenant fleet from a TOML/JSON
manifest, one shared surrogate amortized across all of them.

Artifacts are written atomically with CRC32 checksums, and
``verify-artifact`` checks one without loading it.  A killed
``collect`` or ``train`` is rerun: both take seconds and are seeded, so
a rerun on the same host writes the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import pathlib
import sys
from functools import partial
from typing import List, Optional

from repro.bench.collection import DataCollectionCampaign
from repro.bench.dataset import load_dataset, save_dataset
from repro.bench.ycsb import YCSBBenchmark
from repro.config import CASSANDRA_KEY_PARAMETERS, SCYLLA_KEY_PARAMETERS
from repro.core.persistence import load_surrogate, save_surrogate
from repro.core.policies import DECISION_MODES, HysteresisPolicy, OraclePolicy
from repro.core.rafiki import Rafiki
from repro.core.surrogate import SurrogateModel
from repro.datastore import CassandraLike, ScyllaLike
from repro.errors import (
    GuardError,
    PersistenceError,
    SearchError,
    TrainingError,
    WorkloadError,
)
from repro.middleware import (
    MiddlewareScheduler,
    load_manifest,
    parse_manifest,
    specs_from_manifest,
)
from repro.ml.ensemble import EnsembleConfig
from repro.recovery.atomic import verify_artifact
from repro.runtime import EventBus, resolve_backend
from repro.workload.characterize import characterize_trace
from repro.workload.mgrast import MGRastTraceGenerator
from repro.workload.spec import mgrast_workload


def _make_datastore(name: str):
    if name == "cassandra":
        return CassandraLike(), CASSANDRA_KEY_PARAMETERS
    if name == "scylladb":
        return ScyllaLike(), SCYLLA_KEY_PARAMETERS
    raise SystemExit(f"unknown datastore {name!r} (cassandra | scylladb)")


def _load_artifact(load, path, *args, **kwargs):
    """``load(path, ...)``; an artifact that is missing, corrupt or not
    what ``load`` reads prints ``cannot load <path>: ...`` on stderr and
    exits 1."""
    path = pathlib.Path(path)
    try:
        return load(path, *args, **kwargs)
    except (PersistenceError, TrainingError) as exc:
        # The loaders' messages read "<what> <path>: <reason>": name the path once.
        what, named, reason = str(exc).partition(f" {path}: ")
        reason = f"{what}: {reason}" if named else what
        print(f"cannot load {path}: {reason}", file=sys.stderr)
        raise SystemExit(1) from None


def _load_rafiki(args, datastore) -> Rafiki:
    surrogate = _load_artifact(load_surrogate, args.surrogate, datastore.space)
    return Rafiki(datastore, surrogate, surrogate.feature_parameters, seed=args.seed)


# ------------------------------------------------------------------ subcommands


def cmd_collect(args) -> int:
    datastore, key_params = _make_datastore(args.datastore)
    events = EventBus()
    if not args.quiet:
        events.subscribe(
            lambda e: print(
                f"\r   sample {e.payload['done']}/{e.payload['total']}",
                end="",
                flush=True,
            ),
            topic="collect.sample",
        )
    with resolve_backend(workers=args.workers) as backend:
        try:
            campaign = DataCollectionCampaign(
                datastore,
                mgrast_workload(args.base_read_ratio),
                key_parameters=key_params,
                n_workloads=args.workloads,
                n_configurations=args.configurations,
                n_faulty=args.faulty,
                benchmark=(
                    YCSBBenchmark(datastore, run_seconds=args.run_seconds)
                    if args.run_seconds is not None
                    else None
                ),
                seed=args.seed,
                backend=backend,
                events=events,
            )
        except ValueError as exc:
            print(f"bad campaign: {exc}", file=sys.stderr)
            return 1
        dataset = campaign.run()
    if not args.quiet:
        print()
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    datastore, _ = _make_datastore(args.datastore)
    dataset = _load_artifact(load_dataset, args.dataset, datastore.space)
    try:
        with resolve_backend(workers=args.workers) as backend:
            surrogate = SurrogateModel(
                datastore.space,
                dataset.feature_parameters,
                EnsembleConfig(n_networks=args.networks),
            ).fit(dataset, seed=args.seed, backend=backend)
    except TrainingError as exc:
        print(f"cannot train: {exc}", file=sys.stderr)
        return 1
    save_surrogate(surrogate, args.out)
    print(
        f"trained on {len(dataset)} samples "
        f"({surrogate.ensemble.active_count} nets kept); wrote {args.out}"
    )
    return 0


def cmd_verify_artifact(args) -> int:
    """Check a checksummed artifact; exit 1 if it is untrustworthy."""
    try:
        summary = verify_artifact(args.path)
    except PersistenceError as exc:
        print(f"CORRUPT: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, default=str))
    return 0


def cmd_recommend(args) -> int:
    datastore, _ = _make_datastore(args.datastore)
    rafiki = _load_rafiki(args, datastore)
    result = rafiki.recommend(args.read_ratio)
    payload = {
        "read_ratio": args.read_ratio,
        "predicted_throughput": result.predicted_throughput,
        "surrogate_evaluations": result.evaluations,
        "configuration": {
            k: v for k, v in result.configuration.non_default_items().items()
        },
    }
    print(json.dumps(payload, indent=2, default=float))
    return 0


def cmd_replay(args) -> int:
    """Race a tuned tenant against the static-default baseline.

    Both run as middleware tenants on one scheduler: identical trace,
    identical seeds, deterministic interleaving — only the tuning
    differs.
    """
    datastore, _ = _make_datastore(args.datastore)
    rafiki = _load_rafiki(args, datastore)
    tenant = {
        "id": "rafiki",
        "mode": args.mode,
        "seed": args.seed,
        "hours": args.hours,
        "nodes": args.nodes,
        "replication_factor": args.replication_factor,
        "fault_seed": args.fault_seed,
        "canary_margin": args.canary_margin,
    }
    (spec,) = specs_from_manifest(parse_manifest({"tenants": [tenant]}))
    events = EventBus()
    if not args.quiet:
        events.subscribe(lambda e: print(f"   {e}"), topic="tenant.rafiki.fault")
        events.subscribe(lambda e: print(f"   {e}"), topic="tenant.rafiki.controller")

    scheduler = MiddlewareScheduler(datastore, rafiki, events=events)
    # The baseline: the same tenant untuned, unfaulted and uncanaried.  A
    # policy remembers the read ratio it last acted on, so it gets its own.
    scheduler.add_tenant(
        dataclasses.replace(
            spec,
            tenant_id="static",
            use_rafiki=False,
            policy=HysteresisPolicy(OraclePolicy()),
            fault_plan=None,
            canary_margin=None,
        )
    )
    scheduler.add_tenant(spec)
    results = scheduler.run()
    static, tuned = results["static"], results["rafiki"]
    gain = tuned.mean_throughput / static.mean_throughput - 1.0
    print(f"windows:          {len(spec.rr_series)}")
    print(f"static default:   {static.mean_throughput:>12,.0f} ops/s")
    print(f"rafiki ({args.mode:>8}): {tuned.mean_throughput:>12,.0f} ops/s ({gain:+.1%})")
    print(f"reconfigurations: {tuned.reconfiguration_count}")
    if spec.fault_plan is not None or args.canary_margin is not None:
        print(f"rollbacks:        {tuned.rollback_count}")
        print(f"degraded windows: {tuned.degraded_count}")
    return 0


def cmd_serve(args) -> int:
    """Run a multi-tenant campaign from a tenant manifest."""
    datastore, _ = _make_datastore(args.datastore)
    try:
        manifest = load_manifest(args.manifest)
        specs = specs_from_manifest(manifest, hours=args.hours)
    except PersistenceError as exc:
        print(f"bad manifest: {exc}", file=sys.stderr)
        return 1
    rafiki = _load_rafiki(args, datastore)
    events = EventBus()
    restart_loss = {spec.tenant_id: 0.0 for spec in specs}
    restarted_nodes = {spec.tenant_id: 0 for spec in specs}
    drift_windows = {spec.tenant_id: 0 for spec in specs}
    drift_repairs = {spec.tenant_id: 0 for spec in specs}

    # Each handler is bound to its tenant when subscribed: a dotted
    # tenant id spans several topic segments.
    def on_restart(tenant_id, event):
        # The transient capacity loss, charged to the tenant that paid it.
        restart_loss[tenant_id] += event.payload["ops_lost"]
        restarted_nodes[tenant_id] += event.payload["nodes_restarted"]

    def count(counter, tenant_id, event):
        # actuate.drift / actuate.reconciled — the verified actuation
        # story per tenant.
        counter[tenant_id] += 1

    for spec in specs:
        tenant_id = spec.tenant_id
        events.subscribe(
            partial(on_restart, tenant_id),
            topic=f"tenant.{tenant_id}.actuate.rolling_restart",
        )
        events.subscribe(
            partial(count, drift_windows, tenant_id),
            topic=f"tenant.{tenant_id}.actuate.drift",
        )
        events.subscribe(
            partial(count, drift_repairs, tenant_id),
            topic=f"tenant.{tenant_id}.actuate.reconciled",
        )
    if not args.quiet:
        events.subscribe(
            lambda e: print(f"   {e.message}"),
            topic="scheduler",
        )
        events.subscribe(
            lambda e: print(f"   {e.message}"),
            topic="guard",
        )
    cluster_capacity = (
        args.cluster_capacity
        if args.cluster_capacity is not None
        else manifest.cluster_capacity
    )
    try:
        scheduler = MiddlewareScheduler(
            datastore,
            rafiki,
            events=events,
            workers=args.workers,
            cluster_capacity=cluster_capacity,
            shedding=manifest.shedding,
        )
        for spec in specs:
            scheduler.add_tenant(spec)
    except (GuardError, SearchError) as exc:
        print(f"bad fleet: {exc}", file=sys.stderr)
        return 1
    results = scheduler.run()
    print(f"tenants:          {len(results)}  ({manifest.source})")
    guard_report = scheduler.guard_report()
    guarded = cluster_capacity is not None or any(
        scheduler.session(spec.tenant_id).guard is not None for spec in specs
    )
    for spec in specs:
        run = results[spec.tenant_id]
        line = (
            f"tenant {spec.tenant_id:<16} {len(run.events):>4} windows  "
            f"{run.mean_throughput:>12,.0f} ops/s  "
            f"{run.reconfiguration_count:>3} reconfigs  "
            f"{run.rollback_count:>2} rollbacks  "
            f"{run.degraded_count:>2} degraded"
        )
        if spec.restart_policy == "rolling":
            line += (
                f"  {restarted_nodes[spec.tenant_id]} node restarts "
                f"({restart_loss[spec.tenant_id]:,.0f} ops lost)"
            )
        if guarded:
            # The guard columns only appear on guarded fleets, so an
            # unguarded serve prints byte-identical output to before.
            entry = guard_report[spec.tenant_id]
            line += f"  {entry['sheds']:>2} shed"
            if entry["slo"] is not None:
                line += f"  SLO {entry['slo']['attainment']:>6.1%}"
            if entry["breakers"] is not None:
                opens = sum(b["opens"] for b in entry["breakers"].values())
                line += f"  {opens} breaker opens"
        if any(drift_windows.values()):
            # Drift columns only appear when actuation actually drifted,
            # so fault-free serves print byte-identical output to before.
            quarantined = sum(
                1 for e in run.events if getattr(e, "quarantined", False)
            )
            line += (
                f"  {drift_windows[spec.tenant_id]} drift "
                f"({drift_repairs[spec.tenant_id]} repaired, "
                f"{quarantined} quarantined)"
            )
        print(line)
    if guarded and scheduler.ledger is not None:
        ledger = scheduler.ledger
        print(
            f"cluster:          {ledger.capacity:,.0f} ops/s capacity, "
            f"{ledger.rounds_overloaded}/{ledger.rounds_planned} rounds "
            f"overloaded, {sum(ledger.shed_counts.values())} windows shed"
        )
    state_report = scheduler.state_report()
    if state_report is not None:
        # Only sharded serves (--workers > 1) ship state, so this is
        # diagnostics on stderr, keeping stdout byte-identical to a
        # serial serve (the contract tests and smoke scripts compare).
        print(
            f"state shipping:   {state_report['blob_ships']} blob ships "
            f"({state_report['blob_bytes']:,} bytes), "
            f"{state_report['payload_bytes']:,} task payload bytes",
            file=sys.stderr,
        )
    scheduler.close()
    return 0


def cmd_characterize(args) -> int:
    generator = MGRastTraceGenerator(seed=args.seed, queries_per_window=args.queries)
    trace = generator.generate(duration_seconds=args.hours * 3600)
    try:
        ch = characterize_trace(trace)
    except WorkloadError as exc:
        print(f"cannot characterize: {exc}", file=sys.stderr)
        return 1
    payload = {
        "windows": ch.n_windows,
        "window_seconds": ch.window_seconds,
        "overall_read_ratio": ch.overall_read_ratio,
        "krd_mean_ops": ch.krd_mean_ops,
        "krd_samples": ch.krd_samples,
        "read_ratios": list(ch.read_ratios),
    }
    print(json.dumps(payload, indent=2, default=float))
    return 0


# ------------------------------------------------------------------ parser


def _int_at_least(minimum: int):
    """An argparse ``type``: an integer >= ``minimum``, else exit 2."""

    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _positive_float(text):
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _fraction(text):
    """An argparse ``type``: a number in [0, 1), else exit 2."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return value


def _read_ratio(text):
    """An argparse ``type``: a read ratio in [0, 1], else exit 2."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _parent(*adders) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for add in adders:
        add(parent)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Rafiki NoSQL-tuning middleware (reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flags are defined once, on reusable parent parsers, so every
    # subcommand spells --datastore/--seed/--quiet/--workers identically.
    datastore_p = _parent(
        lambda p: p.add_argument(
            "--datastore", default="cassandra", help="cassandra | scylladb"
        )
    )
    seed_p = _parent(lambda p: p.add_argument("--seed", type=_int_at_least(0), default=0))
    quiet_p = _parent(lambda p: p.add_argument("--quiet", action="store_true"))
    workers_p = _parent(
        lambda p: p.add_argument(
            "--workers",
            type=_int_at_least(1),
            default=1,
            help="worker processes for the parallel execution backend "
            "(1 = serial; results are identical either way)",
        )
    )

    p = sub.add_parser(
        "collect",
        help="run the offline benchmarking campaign",
        parents=[datastore_p, seed_p, workers_p, quiet_p],
    )
    p.add_argument("--out", required=True, help="dataset JSON path")
    p.add_argument("--base-read-ratio", type=_read_ratio, default=0.5)
    p.add_argument("--workloads", type=_int_at_least(2), default=11)
    p.add_argument("--configurations", type=_int_at_least(1), default=20)
    p.add_argument("--faulty", type=_int_at_least(0), default=20)
    p.add_argument(
        "--run-seconds",
        type=_positive_float,
        default=None,
        help="simulated benchmark duration per sample (default: paper's 300s)",
    )
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser(
        "train",
        help="train the surrogate on a dataset",
        parents=[datastore_p, seed_p, workers_p],
    )
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="surrogate JSON path")
    p.add_argument("--networks", type=_int_at_least(1), default=20)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "verify-artifact",
        help="verify a checksummed artifact without loading it",
    )
    p.add_argument("path", help="artifact path")
    p.set_defaults(func=cmd_verify_artifact)

    p = sub.add_parser(
        "recommend",
        help="search for a configuration",
        parents=[datastore_p, seed_p],
    )
    p.add_argument("--surrogate", required=True)
    p.add_argument("--read-ratio", type=_read_ratio, required=True)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser(
        "replay",
        help="replay a dynamic MG-RAST day",
        parents=[datastore_p, seed_p, quiet_p],
    )
    p.add_argument("--surrogate", required=True)
    p.add_argument("--hours", type=_int_at_least(1), default=24)
    p.add_argument("--mode", default="oracle", choices=DECISION_MODES)
    p.add_argument(
        "--nodes", type=_int_at_least(1), default=1, help="simulated cluster size"
    )
    p.add_argument(
        "--replication-factor", type=_int_at_least(1), default=1, dest="replication_factor"
    )
    p.add_argument(
        "--fault-seed",
        type=_int_at_least(0),
        default=None,
        help="generate and inject a seeded FaultPlan (off by default)",
    )
    p.add_argument(
        "--canary-margin",
        type=_fraction,
        default=None,
        help="enable canary-and-rollback with this undershoot margin, e.g. 0.2",
    )
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "serve",
        help="run a multi-tenant campaign from a tenant manifest",
        parents=[datastore_p, seed_p, workers_p, quiet_p],
    )
    p.add_argument("--surrogate", required=True, help="shared surrogate JSON path")
    p.add_argument(
        "--manifest",
        required=True,
        help="TOML (Python 3.11+) or JSON tenant manifest",
    )
    p.add_argument(
        "--hours",
        type=_positive_float,
        default=None,
        help="override every tenant's campaign length",
    )
    p.add_argument(
        "--cluster-capacity",
        type=float,
        default=None,
        help="shared-cluster capacity (ops/s) for admission control; "
        "overrides the manifest's [guard] cluster_capacity",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "characterize",
        help="synthesize + characterize a trace",
        parents=[seed_p],
    )
    p.add_argument("--hours", type=_int_at_least(1), default=24)
    p.add_argument(
        "--queries", type=_int_at_least(1), default=1000, help="queries per window"
    )
    p.set_defaults(func=cmd_characterize)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "replication_factor", 1) > getattr(args, "nodes", 1):
        parser.error(
            f"--replication-factor {args.replication_factor} exceeds "
            f"--nodes {args.nodes}"
        )
    return args.func(args)

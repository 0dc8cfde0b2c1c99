"""Tenant manifests: declarative multi-tenant campaigns.

``python -m repro serve --manifest tenants.toml`` reads a TOML (Python
3.11+, via :mod:`tomllib`) or JSON manifest describing the tenant fleet
and builds the :class:`~repro.middleware.scheduler.TenantSpec` list a
:class:`~repro.middleware.scheduler.MiddlewareScheduler` runs.  Example::

    [defaults]
    mode = "oracle"
    hours = 6
    nodes = 1

    [[tenants]]
    id = "assembly-day"
    seed = 1

    [[tenants]]
    id = "annotation-burst"
    mode = "forecast"
    seed = 2
    nodes = 4
    replication_factor = 2
    restart_policy = "rolling"
    canary_margin = 0.2
    fault_seed = 7

Overload protection is declared the same way: a top-level ``[guard]``
section sets the shared cluster's modeled ``cluster_capacity`` (ops/s)
and whether ``shedding`` is enabled, and each tenant (or ``[defaults]``)
may carry nested ``slo`` / ``guard`` stanzas plus a ``priority``::

    [guard]
    cluster_capacity = 250000

    [[tenants]]
    id = "assembly-day"
    priority = 0                   # lower = more important = shed last

    [tenants.slo]
    throughput_floor = 40000
    window_span = 8
    error_budget = 0.25

    [tenants.guard]
    breaker_failures = 3
    max_restarts = 2

Verified actuation is a third nested stanza: ``[tenants.reconcile]``
(or ``[defaults.reconcile]``) turns on per-window drift read-back,
bounded repair, and telemetry quarantine::

    [tenants.reconcile]
    max_repairs = 2                # per rolling span; omit = uncapped
    span = 8
    escalate = true

Unknown keys are rejected (manifests must not silently drift from the
schema) — including inside the nested ``slo`` / ``guard`` stanzas —
``[defaults]`` applies to every tenant that does not override, and
tenant order in the file is the scheduler's deterministic execution
order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.policies import HysteresisPolicy, make_policy
from repro.errors import GuardError, PersistenceError, SearchError
from repro.faults.plan import FaultPlan
from repro.middleware.guard import GUARD_STANZA_KEYS, GuardSpec
from repro.middleware.reconcile import RECONCILE_STANZA_KEYS, ReconcileSpec
from repro.middleware.scheduler import TenantSpec
from repro.middleware.slo import SLO_STANZA_KEYS, SloSpec
from repro.workload.mgrast import MGRastTraceGenerator
from repro.workload.spec import mgrast_workload
from repro.workload.trace import DEFAULT_WINDOW_SECONDS

#: Tenant keys a manifest may set (``[defaults]`` may set all but ``id``).
TENANT_KEYS = frozenset(
    {
        "id",
        "mode",
        "seed",
        "hours",
        "nodes",
        "replication_factor",
        "base_read_ratio",
        "rr_change_threshold",
        "window_seconds",
        "reconfiguration_penalty_s",
        "canary_margin",
        "canary_std_factor",
        "fault_seed",
        "restart_policy",
        "restart_seconds_per_node",
        "load",
        "priority",
        "slo",
        "guard",
        "reconcile",
    }
)

#: Tenant keys that must hold an integer (``fault_seed`` may be null).
_INTEGER_KEYS = ("nodes", "replication_factor", "seed", "priority", "fault_seed")

#: Keys the top-level ``[guard]`` section may set.
GUARD_SECTION_KEYS = frozenset({"cluster_capacity", "shedding"})

_TENANT_DEFAULTS: Dict[str, Any] = {
    "mode": "oracle",
    "seed": 0,
    "hours": 24,
    "nodes": 1,
    "replication_factor": 1,
    "base_read_ratio": 0.5,
    "rr_change_threshold": 0.08,
    "window_seconds": DEFAULT_WINDOW_SECONDS,
    "reconfiguration_penalty_s": 5.0,
    "canary_margin": None,
    "canary_std_factor": 2.0,
    "fault_seed": None,
    "restart_policy": "instant",
    "restart_seconds_per_node": 30.0,
    "load": True,
    "priority": 0,
    "slo": None,
    "guard": None,
    "reconcile": None,
}


@dataclass(frozen=True)
class TenantManifest:
    """Parsed manifest: per-tenant settings with defaults applied."""

    tenants: List[Dict[str, Any]]
    source: str = "<memory>"
    #: Shared-cluster admission control (``[guard]`` section); None = off.
    cluster_capacity: Optional[float] = None
    shedding: bool = True

    def __len__(self) -> int:
        return len(self.tenants)


def _parse_document(text: str, path: str) -> Dict[str, Any]:
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # Python < 3.11: the stdlib has no TOML parser
            raise PersistenceError(
                f"cannot read {path}: TOML manifests need Python 3.11+ "
                "(tomllib); rewrite the manifest as JSON"
            ) from None
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise PersistenceError(f"malformed TOML manifest {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"malformed JSON manifest {path}: {exc}") from exc


def load_manifest(path) -> TenantManifest:
    """Read and validate a tenant manifest file (TOML or JSON)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read manifest {path}: {exc}") from exc
    return parse_manifest(_parse_document(text, str(path)), source=str(path))


def _check_stanza(
    stanza: Any, allowed: frozenset, label: str, source: str
) -> None:
    """Validate one nested ``slo`` / ``guard`` stanza's shape and keys."""
    if stanza is None:
        return
    if not isinstance(stanza, dict):
        raise PersistenceError(f"manifest {source}: {label} must be a table")
    bad = set(stanza) - allowed
    if bad:
        raise PersistenceError(
            f"manifest {source}: {label} has unknown key(s) {sorted(bad)}"
        )


def _merge_stanza(base: Optional[dict], override: Optional[dict]) -> Optional[dict]:
    """Merge a tenant's nested stanza over the defaults', key by key."""
    if base is None and override is None:
        return None
    return {**(base or {}), **(override or {})}


def parse_manifest(document: Dict[str, Any], source: str = "<memory>") -> TenantManifest:
    """Validate a manifest document and apply ``[defaults]``."""
    if not isinstance(document, dict):
        raise PersistenceError(f"manifest {source} must be a table/object")
    unknown_sections = set(document) - {"defaults", "tenants", "guard"}
    if unknown_sections:
        raise PersistenceError(
            f"manifest {source} has unknown section(s) {sorted(unknown_sections)}"
        )
    guard_section = document.get("guard", {})
    if not isinstance(guard_section, dict):
        raise PersistenceError(f"manifest {source}: [guard] must be a table")
    bad = set(guard_section) - GUARD_SECTION_KEYS
    if bad:
        raise PersistenceError(
            f"manifest {source}: unknown [guard] key(s) {sorted(bad)}"
        )
    defaults = document.get("defaults", {})
    if not isinstance(defaults, dict):
        raise PersistenceError(f"manifest {source}: [defaults] must be a table")
    bad = set(defaults) - (TENANT_KEYS - {"id"})
    if bad:
        raise PersistenceError(
            f"manifest {source}: unknown default key(s) {sorted(bad)}"
        )
    _check_stanza(
        defaults.get("slo"), SLO_STANZA_KEYS, "[defaults.slo]", source
    )
    _check_stanza(
        defaults.get("guard"), GUARD_STANZA_KEYS, "[defaults.guard]", source
    )
    _check_stanza(
        defaults.get("reconcile"),
        RECONCILE_STANZA_KEYS,
        "[defaults.reconcile]",
        source,
    )
    raw_tenants = document.get("tenants")
    if not isinstance(raw_tenants, list) or not raw_tenants:
        raise PersistenceError(
            f"manifest {source} needs a non-empty [[tenants]] list"
        )
    seen = set()
    tenants = []
    for i, entry in enumerate(raw_tenants):
        if not isinstance(entry, dict):
            raise PersistenceError(f"manifest {source}: tenant #{i} must be a table")
        bad = set(entry) - TENANT_KEYS
        if bad:
            raise PersistenceError(
                f"manifest {source}: tenant #{i} has unknown key(s) {sorted(bad)}"
            )
        _check_stanza(
            entry.get("slo"), SLO_STANZA_KEYS, f"tenant #{i} [slo]", source
        )
        _check_stanza(
            entry.get("guard"), GUARD_STANZA_KEYS, f"tenant #{i} [guard]", source
        )
        _check_stanza(
            entry.get("reconcile"),
            RECONCILE_STANZA_KEYS,
            f"tenant #{i} [reconcile]",
            source,
        )
        merged = {**_TENANT_DEFAULTS, **defaults, **entry}
        # Nested stanzas merge key-wise, not wholesale: a tenant's [slo]
        # refines the [defaults.slo] baseline instead of replacing it.
        for stanza in ("slo", "guard", "reconcile"):
            merged[stanza] = _merge_stanza(
                defaults.get(stanza), entry.get(stanza)
            )
        tenant_id = merged.get("id")
        if not tenant_id or not isinstance(tenant_id, str):
            raise PersistenceError(
                f"manifest {source}: tenant #{i} needs a string 'id'"
            )
        if tenant_id in seen:
            raise PersistenceError(
                f"manifest {source}: duplicate tenant id {tenant_id!r}"
            )
        # ``type(...) is int``, not isinstance: a bool is an int too, and
        # ``nodes = true`` is as wrong as ``nodes = 2.5``.
        for key in _INTEGER_KEYS:
            value = merged[key]
            if type(value) is not int and not (key == "fault_seed" and value is None):
                raise PersistenceError(
                    f"manifest {source}: tenant {tenant_id!r}: {key} must be "
                    f"an integer, got {value!r}"
                )
        for key in ("hours", "window_seconds"):
            value = merged[key]
            if type(value) not in (int, float) or not value > 0:
                raise PersistenceError(
                    f"manifest {source}: tenant {tenant_id!r}: {key} must be "
                    f"a positive number, got {value!r}"
                )
        if not isinstance(merged["load"], bool):
            raise PersistenceError(
                f"manifest {source}: tenant {tenant_id!r}: load must be a "
                f"boolean, got {merged['load']!r}"
            )
        seen.add(tenant_id)
        tenants.append(merged)
    capacity = guard_section.get("cluster_capacity")
    if capacity is not None and (
        not isinstance(capacity, (int, float)) or isinstance(capacity, bool)
    ):
        raise PersistenceError(
            f"manifest {source}: [guard] cluster_capacity must be a number"
        )
    shedding = guard_section.get("shedding", True)
    if not isinstance(shedding, bool):
        raise PersistenceError(
            f"manifest {source}: [guard] shedding must be a boolean"
        )
    return TenantManifest(
        tenants=tenants,
        source=source,
        cluster_capacity=float(capacity) if capacity is not None else None,
        shedding=shedding,
    )


def specs_from_manifest(
    manifest: TenantManifest, hours: Optional[float] = None
) -> List[TenantSpec]:
    """Instantiate the scheduler-facing specs from a parsed manifest.

    ``hours`` overrides every tenant's campaign length (the CLI's
    ``--hours`` flag).  Each tenant gets its own seeded MG-RAST trace,
    decision policy, and (optionally) generated fault plan.
    """
    specs = []
    for entry in manifest.tenants:
        try:
            mode = entry["mode"]
            tenant_hours = hours if hours is not None else entry["hours"]
            series = MGRastTraceGenerator(
                seed=entry["seed"], window_seconds=entry["window_seconds"]
            ).read_ratio_series(tenant_hours * 3600)
            policy = HysteresisPolicy(
                make_policy(mode),
                min_change=entry["rr_change_threshold"],
            )
            fault_plan = None
            if entry["fault_seed"] is not None:
                fault_plan = FaultPlan.generate(
                    seed=entry["fault_seed"],
                    n_windows=len(series),
                    n_nodes=entry["nodes"],
                    slowdown_probability=0.05 if entry["nodes"] > 1 else 0.0,
                )
            slo = (
                SloSpec.from_dict(entry["slo"])
                if entry["slo"] is not None
                else None
            )
            guard = (
                GuardSpec.from_dict(entry["guard"])
                if entry["guard"] is not None
                else None
            )
            reconcile = (
                ReconcileSpec.from_dict(entry["reconcile"])
                if entry["reconcile"] is not None
                else None
            )
            specs.append(
                TenantSpec(
                    tenant_id=entry["id"],
                    rr_series=series,
                    base_workload=mgrast_workload(entry["base_read_ratio"]),
                    policy=policy,
                    n_nodes=entry["nodes"],
                    replication_factor=entry["replication_factor"],
                    seed=entry["seed"],
                    window_seconds=entry["window_seconds"],
                    reconfiguration_penalty_s=entry["reconfiguration_penalty_s"],
                    canary_margin=entry["canary_margin"],
                    canary_std_factor=entry["canary_std_factor"],
                    fault_plan=fault_plan,
                    restart_policy=entry["restart_policy"],
                    restart_seconds_per_node=entry["restart_seconds_per_node"],
                    load=entry["load"],
                    priority=entry["priority"],
                    slo=slo,
                    guard=guard,
                    reconcile=reconcile,
                )
            )
        except (GuardError, SearchError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"manifest {manifest.source}: tenant {entry['id']!r}: {exc}"
            ) from exc
    return specs

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

A tenant's keys are :class:`~repro.middleware.scheduler.TenantSpec`'s
fields, plus ``mode``, ``hours`` and ``fault_seed``: the reader builds
the series, workload, decision policy and fault plan from those three,
and a manifest tenant is always tuned and untraced (no ``use_rafiki`` or
``trace_phases``).  ``id`` and ``nodes`` spell ``tenant_id`` and
``n_nodes``, and ``[defaults]`` may set every key but ``id``.  A
stanza's keys are its spec's fields (``SloSpec``, ``GuardSpec``,
``ReconcileSpec``).  Unknown keys are rejected (manifests must not
silently drift from the schema), a key no table sets keeps its
dataclass default, ``[defaults]`` applies to every tenant that does not
override, and tenant order in the file is the scheduler's deterministic
execution order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional

from repro.core.policies import HysteresisPolicy, make_policy
from repro.errors import FaultError, GuardError, PersistenceError, SearchError
from repro.faults.plan import FaultPlan
from repro.middleware.guard import GuardSpec
from repro.middleware.reconcile import ReconcileSpec
from repro.middleware.scheduler import TenantSpec
from repro.middleware.slo import SloSpec
from repro.workload.mgrast import MGRastTraceGenerator
from repro.workload.spec import mgrast_workload

#: Manifest key -> TenantSpec field, for every field a manifest sets
#: (``id`` and ``nodes`` keep older files' spellings).
_FIELD_OF = {
    {"tenant_id": "id", "n_nodes": "nodes"}.get(f.name, f.name): f.name
    for f in fields(TenantSpec)
    if f.name not in {
        "rr_series", "base_workload", "policy", "fault_plan", "use_rafiki", "trace_phases"
    }
}
#: The reader's own tenant keys, with their defaults.
_READER_DEFAULTS = {"mode": "oracle", "hours": 24, "fault_seed": None}
_TENANT_KEYS = frozenset(_FIELD_OF) | frozenset(_READER_DEFAULTS)
#: Nested stanzas and the spec each one sets.
_STANZAS = {"slo": SloSpec, "guard": GuardSpec, "reconcile": ReconcileSpec}

#: Tenant keys that must hold an integer (``fault_seed`` may be null).
_INTEGER_KEYS = ("nodes", "replication_factor", "seed", "priority", "fault_seed")

#: Keys the top-level ``[guard]`` section may set.
GUARD_SECTION_KEYS = frozenset({"cluster_capacity", "shedding"})


@dataclass(frozen=True)
class TenantManifest:
    """Parsed manifest: each tenant's keys as the document set them
    (``[defaults]`` merged in), plus ``mode``, ``hours`` and ``fault_seed``."""

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


def _check_table(table: Any, allowed, label: str, source: str) -> None:
    """Refuse a table that is not one or sets a key outside ``allowed``."""
    if not isinstance(table, dict):
        raise PersistenceError(f"manifest {source}: {label} must be a table")
    bad = set(table) - allowed
    if bad:
        raise PersistenceError(
            f"manifest {source}: {label} has unknown key(s) {sorted(bad)}"
        )


def _check_tenant_table(
    table: Any, allowed, label: str, stanza_label: str, source: str
) -> None:
    """Check a tenant's (or ``[defaults]``') keys, then each stanza's
    against its spec's fields (``stanza_label`` is formatted with the
    stanza's name)."""
    _check_table(table, allowed, label, source)
    for name, spec in _STANZAS.items():
        if table.get(name) is not None:
            _check_table(
                table[name],
                {f.name for f in fields(spec)},
                stanza_label.format(name),
                source,
            )


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
    _check_table(guard_section, GUARD_SECTION_KEYS, "[guard]", source)
    defaults = document.get("defaults", {})
    _check_tenant_table(
        defaults, _TENANT_KEYS - {"id"}, "[defaults]", "[defaults.{}]", source
    )
    raw_tenants = document.get("tenants")
    if not isinstance(raw_tenants, list) or not raw_tenants:
        raise PersistenceError(
            f"manifest {source} needs a non-empty [[tenants]] list"
        )
    seen = set()
    tenants = []
    for i, entry in enumerate(raw_tenants):
        _check_tenant_table(
            entry, _TENANT_KEYS, f"tenant #{i}", f"tenant #{i} [{{}}]", source
        )
        merged = {**_READER_DEFAULTS, **defaults, **entry}
        # Nested stanzas merge key-wise, not wholesale: a tenant's [slo]
        # refines the [defaults.slo] baseline instead of replacing it.
        for name in _STANZAS:
            if defaults.get(name) is not None or entry.get(name) is not None:
                merged[name] = {**(defaults.get(name) or {}), **(entry.get(name) or {})}
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
            value = merged.get(key)
            if key in merged and type(value) is not int and not (
                key == "fault_seed" and value is None
            ):
                raise PersistenceError(
                    f"manifest {source}: tenant {tenant_id!r}: {key} must be "
                    f"an integer, got {value!r}"
                )
        for key in ("hours", "window_seconds"):
            value = merged.get(key)
            if key in merged and (type(value) not in (int, float) or not value > 0):
                raise PersistenceError(
                    f"manifest {source}: tenant {tenant_id!r}: {key} must be "
                    f"a positive number, got {value!r}"
                )
        if "load" in merged and not isinstance(merged["load"], bool):
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
    decision policy, and (optionally) generated fault plan; every key the
    manifest does not set keeps :class:`TenantSpec`'s default.
    """
    specs = []
    for entry in manifest.tenants:
        settings = {
            _FIELD_OF[key]: value for key, value in entry.items() if key in _FIELD_OF
        }
        # A dataclass keeps each plain field default as a class attribute.
        seed, window_seconds, n_nodes = (
            settings.get(name, getattr(TenantSpec, name))
            for name in ("seed", "window_seconds", "n_nodes")
        )
        try:
            for name, spec in _STANZAS.items():
                if name in settings:
                    settings[name] = spec(**settings[name])
            series = MGRastTraceGenerator(
                seed=seed, window_seconds=window_seconds
            ).read_ratio_series((hours if hours is not None else entry["hours"]) * 3600)
            fault_plan = None
            if entry["fault_seed"] is not None:
                fault_plan = FaultPlan.generate(
                    seed=entry["fault_seed"],
                    n_windows=len(series),
                    n_nodes=n_nodes,
                )
            specs.append(
                TenantSpec(
                    rr_series=series,
                    base_workload=mgrast_workload(0.5),
                    policy=HysteresisPolicy(make_policy(entry["mode"])),
                    fault_plan=fault_plan,
                    **settings,
                )
            )
        except (FaultError, GuardError, SearchError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"manifest {manifest.source}: tenant {entry['id']!r}: {exc}"
            ) from exc
    return specs

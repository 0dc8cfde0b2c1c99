"""Tenant manifests: parsing, defaults, validation, spec building."""

import json
import sys
from dataclasses import fields

import pytest

from repro.errors import PersistenceError
from repro.middleware import (
    GuardSpec,
    ReconcileSpec,
    SloSpec,
    TenantSpec,
    load_manifest,
    parse_manifest,
    specs_from_manifest,
)
from repro.workload.spec import mgrast_workload

HAS_TOMLLIB = sys.version_info >= (3, 11)

DOCUMENT = {
    "defaults": {"hours": 1, "seed": 9, "window_seconds": 60},
    "tenants": [
        {"id": "assembly"},
        {
            "id": "annotation",
            "mode": "forecast",
            "seed": 2,
            "nodes": 3,
            "replication_factor": 2,
            "restart_policy": "rolling",
            "canary_margin": 0.2,
            "fault_seed": 7,
        },
    ],
}

TOML_TEXT = """
[defaults]
hours = 1
seed = 9
window_seconds = 60

[[tenants]]
id = "assembly"

[[tenants]]
id = "annotation"
mode = "forecast"
seed = 2
nodes = 3
replication_factor = 2
restart_policy = "rolling"
canary_margin = 0.2
fault_seed = 7
"""


class TestParsing:
    def test_defaults_merge_under_tenant_overrides(self):
        manifest = parse_manifest(DOCUMENT)
        assert len(manifest) == 2
        assembly, annotation = manifest.tenants
        assert assembly["seed"] == 9          # from [defaults]
        assert assembly["mode"] == "oracle"   # built-in default
        assert annotation["seed"] == 2        # tenant override wins
        assert annotation["window_seconds"] == 60

    def test_json_file_roundtrip(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(DOCUMENT))
        manifest = load_manifest(path)
        assert [t["id"] for t in manifest.tenants] == ["assembly", "annotation"]
        assert manifest.source == str(path)

    @pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_toml_file_matches_json(self, tmp_path):
        toml_path = tmp_path / "tenants.toml"
        toml_path.write_text(TOML_TEXT)
        assert load_manifest(toml_path).tenants == parse_manifest(DOCUMENT).tenants

    @pytest.mark.skipif(HAS_TOMLLIB, reason="covers Python < 3.11 only")
    def test_toml_without_tomllib_is_a_clear_error(self, tmp_path):
        path = tmp_path / "tenants.toml"
        path.write_text(TOML_TEXT)
        with pytest.raises(PersistenceError, match="JSON"):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_manifest(tmp_path / "nope.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError, match="malformed"):
            load_manifest(path)


class TestValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(PersistenceError, match="unknown section"):
            parse_manifest({"tenants": [{"id": "a"}], "tennants": []})

    def test_unknown_default_key_rejected(self):
        with pytest.raises(PersistenceError, match=r"\[defaults\] has unknown key"):
            parse_manifest({"defaults": {"sede": 1}, "tenants": [{"id": "a"}]})

    def test_unknown_tenant_key_rejected(self):
        with pytest.raises(PersistenceError, match="unknown key"):
            parse_manifest({"tenants": [{"id": "a", "node": 3}]})

    def test_empty_tenant_list_rejected(self):
        with pytest.raises(PersistenceError, match="non-empty"):
            parse_manifest({"tenants": []})

    def test_missing_id_rejected(self):
        with pytest.raises(PersistenceError, match="'id'"):
            parse_manifest({"tenants": [{"seed": 1}]})

    def test_duplicate_id_rejected(self):
        with pytest.raises(PersistenceError, match="duplicate"):
            parse_manifest({"tenants": [{"id": "a"}, {"id": "a"}]})

    def test_id_not_settable_from_defaults(self):
        with pytest.raises(PersistenceError, match=r"\[defaults\] has unknown key"):
            parse_manifest({"defaults": {"id": "a"}, "tenants": [{"id": "b"}]})


class TestGuardStanzas:
    def test_guard_section_parsed(self):
        manifest = parse_manifest(
            {
                "guard": {"cluster_capacity": 250_000, "shedding": False},
                "tenants": [{"id": "a"}],
            }
        )
        assert manifest.cluster_capacity == 250_000.0
        assert manifest.shedding is False

    def test_guard_section_defaults(self):
        manifest = parse_manifest({"tenants": [{"id": "a"}]})
        assert manifest.cluster_capacity is None
        assert manifest.shedding is True

    def test_unknown_guard_section_key_rejected(self):
        with pytest.raises(PersistenceError, match=r"\[guard\] has unknown key"):
            parse_manifest(
                {"guard": {"capasity": 1}, "tenants": [{"id": "a"}]}
            )

    def test_guard_section_value_types_checked(self):
        with pytest.raises(PersistenceError, match="cluster_capacity"):
            parse_manifest(
                {"guard": {"cluster_capacity": "lots"}, "tenants": [{"id": "a"}]}
            )
        with pytest.raises(PersistenceError, match="shedding"):
            parse_manifest(
                {"guard": {"shedding": "yes"}, "tenants": [{"id": "a"}]}
            )

    def test_unknown_nested_slo_key_rejected(self):
        with pytest.raises(PersistenceError, match=r"\[slo\].*thruput"):
            parse_manifest(
                {"tenants": [{"id": "a", "slo": {"thruput_floor": 10}}]}
            )

    def test_unknown_nested_guard_key_rejected(self):
        with pytest.raises(PersistenceError, match=r"\[guard\].*fuses"):
            parse_manifest(
                {"tenants": [{"id": "a", "guard": {"fuses": 3}}]}
            )

    @pytest.mark.parametrize("spec", [SloSpec, GuardSpec, ReconcileSpec])
    def test_stanza_takes_exactly_its_spec_fields(self, spec):
        name = {SloSpec: "slo", GuardSpec: "guard", ReconcileSpec: "reconcile"}[spec]
        stanza = {field.name: field.default for field in fields(spec)}
        (built,) = specs_from_manifest(
            parse_manifest({"tenants": [{"id": "a", "hours": 1, name: stanza}]})
        )
        assert getattr(built, name) == spec()
        # Neither a stray key nor another stanza's field.
        own = set(stanza)
        others = {f.name for other in (SloSpec, GuardSpec, ReconcileSpec) for f in fields(other)}
        for key in ["extra", *sorted(others - own)]:
            with pytest.raises(PersistenceError, match=f"unknown key.*{key}"):
                parse_manifest({"tenants": [{"id": "a", name: dict(stanza, **{key: 1})}]})

    def test_unknown_nested_key_in_defaults_rejected(self):
        with pytest.raises(PersistenceError, match=r"\[defaults.slo\]"):
            parse_manifest(
                {
                    "defaults": {"slo": {"floor": 10}},
                    "tenants": [{"id": "a"}],
                }
            )

    def test_nested_stanza_must_be_a_table(self):
        with pytest.raises(PersistenceError, match="must be a table"):
            parse_manifest({"tenants": [{"id": "a", "slo": 40000}]})

    def test_nested_stanzas_merge_key_wise_over_defaults(self):
        manifest = parse_manifest(
            {
                "defaults": {
                    "slo": {"throughput_floor": 40_000, "window_span": 8}
                },
                "tenants": [
                    {"id": "a"},
                    {"id": "b", "slo": {"window_span": 4}},
                ],
            }
        )
        a, b = manifest.tenants
        assert a["slo"] == {"throughput_floor": 40_000, "window_span": 8}
        # b refines one key; the defaults' floor survives.
        assert b["slo"] == {"throughput_floor": 40_000, "window_span": 4}

    def test_specs_carry_guard_settings(self):
        manifest = parse_manifest(
            {
                "defaults": {"hours": 1},
                "tenants": [
                    {
                        "id": "guarded",
                        "priority": 3,
                        "slo": {"throughput_floor": 40_000},
                        "guard": {"max_restarts": 2},
                    },
                    {"id": "plain"},
                ],
            }
        )
        guarded, plain = specs_from_manifest(manifest)
        assert guarded.priority == 3
        assert guarded.slo == SloSpec(throughput_floor=40_000)
        assert guarded.guard == GuardSpec(max_restarts=2)
        assert plain.priority == 0
        assert plain.slo is None and plain.guard is None

    def test_bad_nested_value_names_the_tenant(self):
        manifest = parse_manifest(
            {
                "defaults": {"hours": 1},
                "tenants": [{"id": "bad", "slo": {"error_budget": 2.0}}],
            }
        )
        with pytest.raises(PersistenceError, match="bad"):
            specs_from_manifest(manifest)


class TestSpecBuilding:
    def test_specs_reflect_manifest(self):
        specs = specs_from_manifest(parse_manifest(DOCUMENT))
        assert [s.tenant_id for s in specs] == ["assembly", "annotation"]
        assembly, annotation = specs
        assert assembly.n_nodes == 1
        assert assembly.fault_plan is None
        # 1 hour of 60 s windows.
        assert len(assembly.rr_series) == 60
        assert annotation.n_nodes == 3
        assert annotation.restart_policy == "rolling"
        assert annotation.canary_margin == 0.2
        assert annotation.fault_plan is not None

    def test_hours_override_shortens_every_series(self):
        specs = specs_from_manifest(parse_manifest(DOCUMENT), hours=0.5)
        assert all(len(s.rr_series) == 30 for s in specs)

    def test_per_tenant_traces_differ_by_seed(self):
        specs = specs_from_manifest(parse_manifest(DOCUMENT))
        assert list(specs[0].rr_series) != list(specs[1].rr_series)

    def test_invalid_spec_names_the_tenant(self):
        document = {
            "tenants": [{"id": "bad", "nodes": 1, "replication_factor": 2, "hours": 1}]
        }
        with pytest.raises(PersistenceError, match="bad.*replication factor"):
            specs_from_manifest(parse_manifest(document))
        # A fault plan for no node is refused before the spec is built.
        document = {"tenants": [{"id": "bad", "nodes": 0, "fault_seed": 1, "hours": 1}]}
        with pytest.raises(PersistenceError, match="bad.*node"):
            specs_from_manifest(parse_manifest(document))

    @pytest.mark.parametrize("key", ["rr_change_threshold", "base_read_ratio"])
    def test_retired_keys_rejected(self, key):
        """Both were retired: the hysteresis threshold is HysteresisPolicy's
        own and the base workload is ``mgrast_workload(0.5)``."""
        with pytest.raises(PersistenceError, match=f"unknown key.*{key}"):
            parse_manifest({"tenants": [{"id": "a", key: 0.5}]})

    def test_every_set_key_reaches_the_spec(self):
        """Each tenant key but the reader's own names a TenantSpec field,
        and a value set in the document is the spec's."""
        tenant = {
            "id": "full",
            "nodes": 3,
            "replication_factor": 2,
            "seed": 5,
            "window_seconds": 120,
            "reconfiguration_penalty_s": 7.5,
            "canary_margin": 0.3,
            "canary_std_factor": 1.5,
            "restart_policy": "rolling",
            "restart_seconds_per_node": 12.0,
            "load": False,
            "priority": 4,
            "slo": {"throughput_floor": 1000.0},
            "guard": {"max_restarts": 1},
            "reconcile": {"escalate": False},
        }
        (spec,) = specs_from_manifest(parse_manifest({"tenants": [dict(tenant, hours=1)]}))
        spelled = {"id": "tenant_id", "nodes": "n_nodes"}
        stanzas = {"slo": SloSpec, "guard": GuardSpec, "reconcile": ReconcileSpec}
        for key, value in tenant.items():
            if key in stanzas:
                value = stanzas[key](**value)
            assert getattr(spec, spelled.get(key, key)) == value, key
        assert len(spec.rr_series) == 30     # 1 hour of 120 s windows

    def test_unset_keys_keep_the_dataclass_defaults(self):
        (spec,) = specs_from_manifest(parse_manifest({"tenants": [{"id": "bare"}]}))
        bare = TenantSpec(
            tenant_id="bare", rr_series=spec.rr_series, base_workload=mgrast_workload(0.5)
        )
        for field in fields(TenantSpec):
            if field.name not in ("rr_series", "policy"):
                assert getattr(spec, field.name) == getattr(bare, field.name), field.name
        assert spec.policy.min_change == bare.policy.min_change

    def test_wrong_typed_value_names_the_tenant(self):
        for key, value in [
            ("nodes", "three"),
            ("nodes", 2.5),
            ("nodes", True),
            ("replication_factor", 1.0),
            ("seed", "7"),
            ("priority", 1.7),
            ("priority", True),
            ("fault_seed", 3.5),
            ("fault_seed", False),
            ("load", "false"),
            ("load", 0),
        ]:
            document = {"tenants": [{"id": "typo", key: value, "hours": 1}]}
            with pytest.raises(PersistenceError, match=f"typo.*{key}"):
                specs_from_manifest(parse_manifest(document))

"""Tenant manifests: parsing, defaults, validation, spec building."""

import json
import sys

import pytest

from repro.errors import PersistenceError
from repro.middleware import (
    GuardSpec,
    SloSpec,
    load_manifest,
    parse_manifest,
    specs_from_manifest,
)

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
        with pytest.raises(PersistenceError, match="unknown default key"):
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
        with pytest.raises(PersistenceError, match="unknown default key"):
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
        with pytest.raises(PersistenceError, match=r"unknown \[guard\] key"):
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
            "tenants": [{"id": "bad", "fault_seed": 3, "nodes": 1, "hours": 1}]
        }
        # A 1-node tenant whose generated plan contains node-level
        # faults must fail with the tenant named.
        try:
            specs_from_manifest(parse_manifest(document))
        except PersistenceError as exc:
            assert "bad" in str(exc)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1])
    def test_bad_hysteresis_threshold_names_the_tenant(self, threshold):
        """``rr_change_threshold = nan`` used to build a damper whose every
        compare is False — hysteresis silently off."""
        document = {"tenants": [{"id": "damp", "rr_change_threshold": threshold, "hours": 1}]}
        with pytest.raises(PersistenceError, match="damp.*min_change"):
            specs_from_manifest(parse_manifest(document))

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

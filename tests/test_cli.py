import json
import re

import pytest

from repro.bench.dataset import PerformanceDataset, save_dataset
from repro.cli import main
from repro.config import CASSANDRA_KEY_PARAMETERS


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A tiny collect -> train run shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "dataset.json"
    surrogate = root / "surrogate.json"
    rc = main(
        [
            "collect",
            "--out", str(dataset),
            "--workloads", "4",
            "--configurations", "5",
            "--faulty", "1",
            "--seed", "3",
            "--quiet",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--dataset", str(dataset),
            "--out", str(surrogate),
            "--networks", "3",
            "--seed", "3",
        ]
    )
    assert rc == 0
    return dataset, surrogate


class TestCollect(object):
    def test_dataset_written(self, artifacts):
        dataset, _ = artifacts
        blob = json.loads(dataset.read_text())
        assert len(blob["samples"]) == 4 * 5 - 1
        assert blob["feature_parameters"]


class TestTrain:
    def test_surrogate_written(self, artifacts):
        _, surrogate = artifacts
        blob = json.loads(surrogate.read_text())
        assert blob["networks"]


class TestWorkers:
    def test_parallel_collect_matches_serial(self, artifacts, tmp_path):
        """--workers N changes scheduling, not results."""
        serial_dataset, _ = artifacts
        parallel_dataset = tmp_path / "dataset-parallel.json"
        rc = main(
            [
                "collect",
                "--out", str(parallel_dataset),
                "--workloads", "4",
                "--configurations", "5",
                "--faulty", "1",
                "--seed", "3",
                "--workers", "2",
                "--quiet",
            ]
        )
        assert rc == 0
        assert json.loads(parallel_dataset.read_text()) == json.loads(
            serial_dataset.read_text()
        )


class TestRecommend:
    def test_prints_configuration_json(self, artifacts, capsys):
        _, surrogate = artifacts
        rc = main(
            [
                "recommend",
                "--surrogate", str(surrogate),
                "--read-ratio", "0.9",
                "--seed", "1",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["read_ratio"] == 0.9
        assert payload["predicted_throughput"] > 0
        assert isinstance(payload["configuration"], dict)


class TestReplay:
    def test_replay_reports_gain(self, artifacts, capsys):
        _, surrogate = artifacts
        rc = main(
            [
                "replay",
                "--surrogate", str(surrogate),
                "--hours", "3",
                "--seed", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "static default" in out
        assert "rafiki" in out

    def test_forecast_mode(self, artifacts, capsys):
        _, surrogate = artifacts
        rc = main(
            [
                "replay",
                "--surrogate", str(surrogate),
                "--hours", "2",
                "--mode", "forecast",
                "--seed", "2",
            ]
        )
        assert rc == 0


class TestServe:
    MANIFEST = {
        "defaults": {"hours": 0.25, "window_seconds": 60},
        "tenants": [
            {"id": "assembly", "seed": 1},
            {"id": "annotation", "seed": 2},
            {
                "id": "archive",
                "seed": 3,
                "nodes": 3,
                "restart_policy": "rolling",
                "restart_seconds_per_node": 5,
            },
        ],
    }

    def test_serve_runs_a_manifest_fleet(self, artifacts, tmp_path, capsys):
        _, surrogate = artifacts
        manifest = tmp_path / "tenants.json"
        manifest.write_text(json.dumps(self.MANIFEST))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for tenant_id in ("assembly", "annotation", "archive"):
            assert f"tenant {tenant_id}" in out
        assert "node restarts" in out  # the rolling tenant reports its cost

    def test_sharded_serve_prints_the_serial_stdout(
        self, artifacts, tmp_path, capsys
    ):
        """--workers 2 changes scheduling, not one byte of stdout; what
        the rounds shipped goes to stderr."""
        _, surrogate = artifacts
        manifest = tmp_path / "tenants.json"
        manifest.write_text(json.dumps(self.MANIFEST))
        argv = [
            "serve",
            "--surrogate", str(surrogate),
            "--manifest", str(manifest),
            "--quiet",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr()
        assert main([*argv, "--workers", "2"]) == 0
        sharded = capsys.readouterr()
        assert sharded.out == serial.out
        assert "state shipping" not in serial.err
        assert "blob ships" in sharded.err
        assert "task payload bytes" in sharded.err

    def test_serve_rejects_bad_manifest(self, artifacts, tmp_path, capsys):
        _, surrogate = artifacts
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({"tenants": [{"id": "a", "oops": 1}]}))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--quiet",
            ]
        )
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    GUARDED_MANIFEST = {
        "guard": {"cluster_capacity": 50000.0, "shedding": True},
        "defaults": {"hours": 0.25, "window_seconds": 60},
        "tenants": [
            {
                "id": "assembly",
                "seed": 1,
                "slo": {
                    "throughput_floor": 1000.0,
                    "window_span": 4,
                    "error_budget": 0.25,
                },
            },
            {
                "id": "burst",
                "seed": 2,
                "priority": 5,
                "guard": {"breaker_failures": 3, "breaker_cooldown": 4},
            },
        ],
    }

    def test_serve_guarded_manifest_reports_guard_columns(
        self, artifacts, tmp_path, capsys
    ):
        _, surrogate = artifacts
        manifest = tmp_path / "guarded.json"
        manifest.write_text(json.dumps(self.GUARDED_MANIFEST))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shed" in out
        assert "SLO" in out
        assert "breaker opens" in out
        assert "cluster:" in out  # the ledger summary line

    def test_serve_unguarded_manifest_prints_no_guard_columns(
        self, artifacts, tmp_path, capsys
    ):
        _, surrogate = artifacts
        manifest = tmp_path / "plain.json"
        manifest.write_text(json.dumps(self.MANIFEST))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shed" not in out
        assert "SLO" not in out
        assert "cluster:" not in out

    def test_serve_rejects_bad_cluster_capacity(self, artifacts, tmp_path, capsys):
        _, surrogate = artifacts
        manifest = tmp_path / "tenants.json"
        manifest.write_text(json.dumps(self.MANIFEST))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--cluster-capacity", "-5",
                "--quiet",
            ]
        )
        assert rc == 1
        assert "bad fleet" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("hours", 0),
            ("hours", -1),
            ("window_seconds", 0),
            ("window_seconds", -60),
            ("reconfiguration_penalty_s", -5),
            ("canary_std_factor", -0.5),
            ("restart_seconds_per_node", -1),
        ],
    )
    def test_serve_rejects_bad_tenant_values(
        self, artifacts, tmp_path, capsys, key, value
    ):
        _, surrogate = artifacts
        manifest = tmp_path / "tenants.json"
        tenant = {"id": "archive", "nodes": 3, "restart_policy": "rolling", key: value}
        manifest.write_text(
            json.dumps({"defaults": self.MANIFEST["defaults"], "tenants": [tenant]})
        )
        rc = main(
            ["serve", "--surrogate", str(surrogate), "--manifest", str(manifest)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"bad manifest: manifest {manifest}: tenant 'archive': ")
        assert key in err


    def test_serve_dotted_rolling_tenant_reports_its_restarts(
        self, artifacts, tmp_path, capsys
    ):
        """A dotted tenant id spans several topic segments: the restart
        cost is charged to the whole id, not to its first segment."""
        _, surrogate = artifacts
        manifest = tmp_path / "tenants.json"
        tenant = {"id": "team.alpha", "nodes": 3, "restart_policy": "rolling"}
        manifest.write_text(
            json.dumps({"defaults": self.MANIFEST["defaults"], "tenants": [tenant]})
        )
        rc = main(
            ["serve", "--surrogate", str(surrogate), "--manifest", str(manifest), "--quiet"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tenant team.alpha" in out
        restarts = re.search(r"(\d+) node restarts \(([\d,]+) ops lost\)", out)
        assert restarts and int(restarts.group(1)) > 0 and restarts.group(2) != "0"

    @pytest.mark.parametrize("tenant_id", ["alpha.", ".a", "a..b"])
    def test_serve_rejects_tenant_id_with_an_empty_segment(
        self, artifacts, tmp_path, capsys, tenant_id
    ):
        _, surrogate = artifacts
        manifest = tmp_path / "tenants.json"
        manifest.write_text(
            json.dumps(
                {"defaults": self.MANIFEST["defaults"], "tenants": [{"id": tenant_id}]}
            )
        )
        rc = main(
            ["serve", "--surrogate", str(surrogate), "--manifest", str(manifest)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"bad manifest: manifest {manifest}: tenant {tenant_id!r}: ")
        assert f"invalid tenant id {tenant_id!r}" in err


class TestCharacterize:
    def test_outputs_characterization(self, capsys):
        rc = main(["characterize", "--hours", "4", "--queries", "300", "--seed", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["windows"] == 16
        assert 0.0 <= payload["overall_read_ratio"] <= 1.0
        assert payload["krd_mean_ops"] > 0

    def test_trace_without_key_reuse_exits_1(self, capsys):
        rc = main(["characterize", "--hours", "1", "--queries", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no key reuse" in captured.err


class TestVerifyArtifact:
    def test_valid_dataset(self, artifacts, capsys):
        dataset, _ = artifacts
        assert main(["verify-artifact", str(dataset)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["artifact_kind"] == "performance-dataset"

    def test_valid_surrogate(self, artifacts, capsys):
        _, surrogate = artifacts
        assert main(["verify-artifact", str(surrogate)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["artifact_kind"] == "surrogate"

    def test_jsonl_file_is_corrupt(self, artifacts, tmp_path, capsys):
        """A multi-line JSONL file is not an artifact, whatever its lines."""
        dataset, _ = artifacts
        lines = tmp_path / "lines.jsonl"
        lines.write_text(dataset.read_text() + "\n" + dataset.read_text() + "\n")
        assert main(["verify-artifact", str(lines)]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_corrupt_artifact_exits_nonzero(self, artifacts, tmp_path, capsys):
        dataset, _ = artifacts
        bad = tmp_path / "bad.json"
        bad.write_text(dataset.read_text().replace("0", "1", 1))
        assert main(["verify-artifact", str(bad)]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["verify-artifact", str(tmp_path / "nope.json")]) == 1


def bad_artifact(kind, artifacts, tmp_path, wanted):
    """A file a command expecting a ``wanted`` artifact cannot load."""
    dataset, surrogate = artifacts
    path = tmp_path / f"{kind}.json"
    if kind == "truncated":
        good = dataset if wanted == "dataset" else surrogate
        path.write_text(good.read_text()[:1000])
    elif kind == "wrong-kind":
        path.write_text((surrogate if wanted == "dataset" else dataset).read_text())
    elif kind == "empty-object":
        path.write_text("{}")
    return path


class TestArtifactLoadErrors:
    """A missing, truncated, wrong-kind or empty artifact is one
    ``cannot load <path>: ...`` line on stderr that names the path once,
    and exit 1, no traceback."""

    KINDS = ["missing", "truncated", "wrong-kind", "empty-object"]

    @staticmethod
    def assert_cannot_load(argv, path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot load {path}: ")
        assert captured.err.count("\n") == 1
        assert captured.err.count(str(path)) == 1

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "command",
        [
            ["recommend", "--read-ratio", "0.5"],
            ["replay", "--hours", "1"],
            ["serve", "--quiet", "--manifest"],
        ],
        ids=["recommend", "replay", "serve"],
    )
    def test_surrogate_commands(self, artifacts, tmp_path, capsys, command, kind):
        path = bad_artifact(kind, artifacts, tmp_path, "surrogate")
        if command[0] == "serve":
            manifest = tmp_path / "tenants.json"
            manifest.write_text(json.dumps(TestServe.MANIFEST))
            command = [*command, str(manifest)]
        self.assert_cannot_load([*command, "--surrogate", str(path)], path, capsys)

    @pytest.mark.parametrize("kind", KINDS)
    def test_train(self, artifacts, tmp_path, capsys, kind):
        path = bad_artifact(kind, artifacts, tmp_path, "dataset")
        out = tmp_path / "never.json"
        self.assert_cannot_load(
            ["train", "--dataset", str(path), "--out", str(out)], path, capsys
        )
        assert not out.exists()


class TestValidation:
    def test_unknown_datastore(self, artifacts):
        _, surrogate = artifacts
        with pytest.raises(SystemExit):
            main(
                [
                    "recommend",
                    "--datastore", "mongodb",
                    "--surrogate", str(surrogate),
                    "--read-ratio", "0.5",
                ]
            )

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workloads", "1"],
            ["--configurations", "0"],
            ["--faulty", "-1"],
            ["--run-seconds", "0"],
            ["--run-seconds", "nan"],
            ["--base-read-ratio", "1.5"],
            ["--base-read-ratio", "-3"],
            ["--base-read-ratio", "nan"],
            ["--seed", "-3"],
        ],
    )
    def test_bad_collect_flags_exit_2(self, flags, tmp_path, capsys):
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit) as exc:
            main(["collect", "--out", str(out), "--quiet", *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_fault_count_covering_the_grid_exits_1(self, tmp_path, capsys):
        """The default 20 faults on a 3 x 4 grid would drop every sample:
        one line on stderr, and no dataset written."""
        out = tmp_path / "never.json"
        rc = main(["collect", "--out", str(out), "--quiet",
                   "--workloads", "3", "--configurations", "4"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("bad campaign: n_faulty=20 ") and err.count("\n") == 1
        assert "3 x 4 = 12" in err
        assert not out.exists()

    def test_empty_dataset_exits_1(self, tmp_path, capsys):
        dataset = tmp_path / "empty.json"
        save_dataset(PerformanceDataset([], CASSANDRA_KEY_PARAMETERS), dataset)
        out = tmp_path / "never.json"
        rc = main(["train", "--dataset", str(dataset), "--out", str(out), "--networks", "2"])
        assert rc == 1
        assert capsys.readouterr().err == "cannot train: dataset is empty\n"
        assert not out.exists()

    def test_zero_networks_exit_2(self, artifacts, tmp_path, capsys):
        dataset, _ = artifacts
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", str(dataset),
                  "--out", str(tmp_path / "never.json"), "--networks", "0"])
        assert exc.value.code == 2
        assert "--networks" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["replay", "--canary-margin", "1.5"], "--canary-margin"),
            (["replay", "--canary-margin", "-0.1"], "--canary-margin"),
            (["replay", "--nodes", "2", "--replication-factor", "3"],
             "--replication-factor"),
            (["replay", "--hours", "0"], "--hours"),
            (["replay", "--hours", "-2"], "--hours"),
            (["serve", "--manifest", "m.json", "--hours", "0"], "--hours"),
            (["serve", "--manifest", "m.json", "--hours", "-2"], "--hours"),
            (["characterize", "--hours", "0"], "--hours"),
            (["characterize", "--queries", "0"], "--queries"),
            (["recommend", "--read-ratio", "1.5"], "--read-ratio"),
            (["recommend", "--read-ratio", "-0.1"], "--read-ratio"),
            (["recommend", "--read-ratio", "0.5", "--seed", "-1"], "--seed"),
            (["characterize", "--seed", "-1"], "--seed"),
            (["replay", "--fault-seed", "-1"], "--fault-seed"),
        ],
    )
    def test_bad_online_flags_exit_2(self, artifacts, argv, flag, capsys):
        _, surrogate = artifacts
        if argv[0] != "characterize":
            argv = [*argv, "--surrogate", str(surrogate)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["resume", "--journal", "c.wal", "--out", "d.json"],
            ["collect", "--out", "d.json", "--journal", "c.wal"],
            ["train", "--dataset", "d.json", "--out", "s.json",
             "--checkpoint-dir", "ckpt"],
            # ``train`` prints one line either way: it has no --quiet.
            ["train", "--dataset", "d.json", "--out", "s.json", "--quiet"],
        ],
    )
    def test_resume_surface_is_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.bench.ycsb import YCSBBenchmark
from repro.datastore import CassandraLike
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture
def small_workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=1_000_000, krd_mean_ops=50_000)


class TestAnalyticRun:
    def test_produces_result(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=60)
        result = bench.run(cassandra.default_configuration(), small_workload, seed=1)
        assert result.mean_throughput > 0
        assert result.duration_seconds == 60
        assert result.workload is small_workload

    def test_series_buckets_cover_run(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=60)   # 10 s report buckets
        result = bench.run(cassandra.default_configuration(), small_workload, seed=1)
        assert 5 <= len(result.series) <= 7

    def test_metadata_attached(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=30)
        result = bench.run(cassandra.default_configuration(), small_workload, seed=1)
        assert "sstable_count" in result.metadata
        assert "cache_hit_ratio" in result.metadata

    def test_fresh_instance_per_run(self, cassandra, small_workload):
        """The Docker-reset property: repeated runs are independent."""
        bench = YCSBBenchmark(cassandra, run_seconds=30)
        a = bench.run(cassandra.default_configuration(), small_workload, seed=2)
        b = bench.run(cassandra.default_configuration(), small_workload, seed=2)
        assert a.mean_throughput == pytest.approx(b.mean_throughput)

    def test_seed_changes_result(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=30)
        a = bench.run(cassandra.default_configuration(), small_workload, seed=1)
        b = bench.run(cassandra.default_configuration(), small_workload, seed=2)
        assert a.mean_throughput != b.mean_throughput

    def test_skip_load(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=30)
        result = bench.run(
            cassandra.default_configuration(), small_workload, seed=1, load=False
        )
        assert result.metadata["sstable_count"] <= 2

    def test_result_is_pinned(self, cassandra):
        """Series, mean and end-state metadata of one write-heavy run with
        a starved compactor (a backlog at the end, a clock that is not
        whole after the load), to the last bit."""
        config = cassandra.space.configuration(
            concurrent_compactors=1, compaction_throughput_mb_per_sec=8,
            memtable_cleanup_threshold=0.1,
        )
        workload = WorkloadSpec(read_ratio=0.05, n_keys=1_000_000, krd_mean_ops=50_000)
        result = YCSBBenchmark(cassandra, run_seconds=95).run(config, workload, seed=3)
        assert result.mean_throughput == 110429.97940056105
        assert result.metadata == {
            "sstable_count": 6.0,
            "cache_hit_ratio": 0.4225250931278986,
            "compaction_backlog_bytes": 2748107980.8,
        }
        assert [(s.t, s.ops_per_second) for s in result.series] == [
            (18.956639603325407, 110894.89598593526),
            (28.956639603325407, 110992.19700747868),
            (38.95663960332541, 111725.4077012748),
            (48.95663960332541, 110677.40342422019),
            (58.95663960332541, 111259.10258229845),
            (68.95663960332541, 109893.14319421141),
            (78.95663960332541, 109492.90976006356),
            (88.95663960332541, 109907.22243240145),
            (98.95663960332541, 109820.15025400437),
            (103.95663960332541, 108844.74392688398),
        ]

    def test_invalid_durations(self, cassandra):
        with pytest.raises(ValueError):
            YCSBBenchmark(cassandra, run_seconds=0)
        bench = YCSBBenchmark(cassandra)
        for n_ops in (0, -5):  # rejected before the load phase runs
            with pytest.raises(ValueError, match="n_ops"):
                bench.run_engine(
                    cassandra.default_configuration(),
                    WorkloadSpec(read_ratio=0.5),
                    n_ops=n_ops,
                )


class TestEngineRun:
    def test_engine_benchmark_runs(self, cassandra):
        wl = WorkloadSpec(read_ratio=0.5, n_keys=5_000, krd_mean_ops=100.0, value_bytes=64)
        bench = YCSBBenchmark(cassandra)
        result = bench.run_engine(
            cassandra.default_configuration(), wl, n_ops=2_000, load_keys=1_000, seed=3
        )
        assert result.mean_throughput > 0
        assert result.duration_seconds > 0

    def test_engine_benchmark_deterministic(self, cassandra):
        wl = WorkloadSpec(read_ratio=0.3, n_keys=5_000, krd_mean_ops=100.0, value_bytes=64)
        bench = YCSBBenchmark(cassandra)
        a = bench.run_engine(cassandra.default_configuration(), wl, n_ops=1_000, load_keys=500, seed=3)
        b = bench.run_engine(cassandra.default_configuration(), wl, n_ops=1_000, load_keys=500, seed=3)
        assert a.mean_throughput == pytest.approx(b.mean_throughput)

    def test_engine_mean_throughput_is_pinned(self, cassandra):
        """The materialized block's whole trajectory through one number:
        any change to what an op is charged, probed or cached moves it."""
        wl = WorkloadSpec(read_ratio=0.1, n_keys=4000, krd_mean_ops=500.0, value_bytes=120)
        result = YCSBBenchmark(cassandra).run_engine(
            cassandra.default_configuration(), wl, n_ops=4000, load_keys=2000, seed=7
        )
        assert result.mean_throughput == 109120.42120483227


E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def load_workload_module(name):
    """``benchmarks/e2e/workloads/<name>.py``, loaded from its file,
    read-only: the workload package imports every workload, and each
    workload module imports ``calibrate`` from its directory."""
    sys.path.insert(0, str(E2E))
    try:
        spec = importlib.util.spec_from_file_location(
            f"e2e_{name}_workload", E2E / "workloads" / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(E2E))
    return module


class TestEngineYcsbContract:
    """One ``engine_ycsb`` repetition of the contract benchmark, as its
    runner drives it (``prepare`` -> ``run`` -> ``observe``), pinned by
    its digest (stats, clock, table count, bytes written) and simulated
    rate: any change to what an engine op is charged, probed, cached or
    written shows here before a benchmark run."""

    @pytest.fixture(scope="class")
    def workload_class(self):
        return load_workload_module("engine").EngineYcsb

    @pytest.mark.parametrize(
        "seed, digest, sim_ops_per_s",
        [
            (
                2017,
                "b09a06f38e9fb274ce7833edf4dec3aae0344ad67868112883bfe1b1636d2004",
                24047.42449228467,
            ),
            (
                7,
                "b8df33ae144d4a0742d91bd74507ded60b0e371644918f859f153d0f056fe7db",
                23961.107468000326,
            ),
        ],
        ids=["seed-2017", "seed-7"],
    )
    def test_full_repetition_is_pinned(self, workload_class, seed, digest, sim_ops_per_s):
        workload = workload_class(seed, "full")
        state = workload.prepare()
        workload.run(state)
        seen = workload.observe(state)
        assert seen.failures == []
        assert (seen.digest, seen.sim_ops_per_s) == (digest, sim_ops_per_s)


class TestServeContract:
    """The seed-2017 reference repetitions of ``serve_search`` and
    ``serve_steady``, pinned by digest (every window's read ratio,
    decision, throughput and flags, the event log, the cache counts) and
    simulated rate: any change to what the fluid substrate solves, a ring
    serves or a session decides shows here before a benchmark run."""

    @pytest.fixture(scope="class")
    def serve(self):
        return load_workload_module("serve")

    @pytest.fixture(scope="class")
    def surrogate(self, serve):
        # One fixture build for both: it is trained from the module's fixed
        # seed whatever the workload or ``--seed``.
        search = serve.ServeSearch(2017, "full")
        search.build_fixtures(lambda: None)
        return search.surrogate

    @pytest.mark.parametrize(
        "name, digest, sim_ops_per_s",
        [
            (
                "ServeSearch",
                "c8643091aeb7bcfa7c49822210321cda7f9f8528735aac5898a828d509a6e4bc",
                76977.89933179294,
            ),
            (
                "ServeSteady",
                "82f7b237797a74690207251e683cd35db35be81fc9a222c1f79b0bc979e8bef0",
                101548.4003252906,
            ),
        ],
        ids=["serve_search", "serve_steady"],
    )
    def test_reference_repetition_is_pinned(
        self, serve, surrogate, name, digest, sim_ops_per_s
    ):
        workload = getattr(serve, name)(2017, "full")
        workload.surrogate = surrogate
        state = workload.prepare(reference=True)
        workload.run(state)
        workload.finish(state)
        seen = workload.observe(state)
        assert seen.failures == []
        assert (seen.digest, seen.sim_ops_per_s) == (digest, sim_ops_per_s)

import numpy as np
import pytest

from repro.bench.collection import DataCollectionCampaign
from repro.bench.ycsb import YCSBBenchmark
from repro.datastore import CassandraLike
from repro.runtime import EventBus
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture
def base_workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=1_000_000)


def small_campaign(cassandra, base_workload, **kw):
    defaults = dict(
        n_workloads=3,
        n_configurations=4,
        n_faulty=2,
        benchmark=YCSBBenchmark(cassandra, run_seconds=30),
        seed=5,
    )
    defaults.update(kw)
    return DataCollectionCampaign(cassandra, base_workload, **defaults)


class TestPlan:
    def test_workloads_evenly_spaced(self, cassandra, base_workload):
        camp = small_campaign(cassandra, base_workload, n_workloads=11)
        ratios = [w.read_ratio for w in camp.workloads()]
        assert ratios[0] == 0.0 and ratios[-1] == 1.0
        assert len(ratios) == 11
        assert np.allclose(np.diff(ratios), 0.1)

    def test_configuration_count(self, cassandra, base_workload):
        camp = small_campaign(cassandra, base_workload, n_configurations=7)
        assert len(camp.configurations()) == 7

    def test_configurations_cover_extremes(self, cassandra, base_workload):
        camp = small_campaign(cassandra, base_workload, n_configurations=20)
        configs = camp.configurations()
        for name in cassandra.key_parameters:
            spec = cassandra.space[name]
            values = {c[name] for c in configs}
            sweep = spec.sweep_values(4)
            assert sweep[0] in values
            assert sweep[-1] in values

    def test_default_config_included(self, cassandra, base_workload):
        camp = small_campaign(cassandra, base_workload)
        assert cassandra.default_configuration() in camp.configurations()

    def test_validation(self, cassandra, base_workload):
        with pytest.raises(ValueError):
            small_campaign(cassandra, base_workload, n_workloads=1)
        with pytest.raises(ValueError):
            small_campaign(cassandra, base_workload, n_configurations=0)

    def test_negative_fault_count_rejected(self, cassandra, base_workload):
        # Rejected up front, not by numpy's choice() at run time.
        with pytest.raises(ValueError, match="n_faulty"):
            small_campaign(cassandra, base_workload, n_faulty=-1)

    @pytest.mark.parametrize("n_faulty", [12, 20])
    def test_fault_count_covering_the_grid_rejected(self, cassandra, base_workload, n_faulty):
        """Faulty samples are dropped, so as many faults as grid points
        would leave an empty dataset: refused, naming both numbers."""
        with pytest.raises(ValueError, match=rf"n_faulty={n_faulty} .* 3 x 4 = 12 grid"):
            small_campaign(cassandra, base_workload, n_faulty=n_faulty)
        assert len(small_campaign(cassandra, base_workload, n_faulty=11).plan_tasks()) == 12


class TestExecution:
    def test_faulty_samples_dropped(self, cassandra, base_workload):
        camp = small_campaign(cassandra, base_workload)
        dataset = camp.run()
        assert len(dataset) == 3 * 4 - 2

    def test_raw_results_keep_faulty(self, cassandra, base_workload):
        camp = small_campaign(cassandra, base_workload)
        results = camp.run_raw()
        assert len(results) == 12
        assert sum(1 for r in results if r.faulty) == 2

    def test_fault_degrades_throughput(self, cassandra, base_workload):
        camp = small_campaign(cassandra, base_workload)
        results = camp.run_raw()
        # A faulted sample records less than the healthy run would have.
        faulty = [r for r in results if r.faulty]
        assert all(r.mean_throughput > 0 for r in faulty)

    def test_deterministic(self, cassandra, base_workload):
        a = small_campaign(cassandra, base_workload).run()
        b = small_campaign(cassandra, base_workload).run()
        assert np.allclose(a.targets(), b.targets())

    def test_progress_callback(self, cassandra, base_workload):
        seen = []
        camp = small_campaign(cassandra, base_workload)
        camp.events.subscribe(
            lambda e: seen.append((e.payload["done"], e.payload["total"])),
            topic="collect.sample",
        )
        camp.run_raw()
        assert seen[-1] == (12, 12)

    def test_fault_injected_events_published(self, cassandra, base_workload):
        bus = EventBus()
        kinds = []
        bus.subscribe(lambda e: kinds.append(e.payload["kind"]), topic="fault.injected")
        small_campaign(cassandra, base_workload, events=bus).run_raw()
        assert kinds.count("bench-client") == 2

    def test_paper_scale_plan(self, cassandra, base_workload):
        """§4.2: 11 workloads x 20 configs = 220, minus 20 faulty = 200."""
        camp = DataCollectionCampaign(
            cassandra,
            base_workload,
            benchmark=YCSBBenchmark(cassandra, run_seconds=10),
            seed=1,
        )
        assert camp.n_workloads * camp.n_configurations == 220
        assert camp.n_faulty == 20

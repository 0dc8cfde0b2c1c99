from repro.bench.metrics import BenchmarkResult
from repro.config import cassandra_space
from repro.workload.spec import WorkloadSpec


class TestBenchmarkResult:
    def test_aops_alias(self):
        result = BenchmarkResult(
            workload=WorkloadSpec(read_ratio=0.5),
            configuration=cassandra_space().default_configuration(),
            mean_throughput=1234.0,
            duration_seconds=300.0,
        )
        assert result.aops == 1234.0

    def test_repr_marks_faulty(self):
        result = BenchmarkResult(
            workload=WorkloadSpec(read_ratio=0.5),
            configuration=cassandra_space().default_configuration(),
            mean_throughput=10.0,
            duration_seconds=1.0,
            faulty=True,
        )
        assert "FAULTY" in repr(result)

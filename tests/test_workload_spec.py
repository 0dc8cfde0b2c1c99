import pytest

from repro.errors import WorkloadError
from repro.workload.spec import WorkloadSpec, mgrast_workload


class TestWorkloadSpec:
    def test_valid_spec(self):
        spec = WorkloadSpec(read_ratio=0.5)
        assert spec.read_ratio == 0.5

    def test_read_ratio_bounds(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(read_ratio=-0.1)
        with pytest.raises(WorkloadError):
            WorkloadSpec(read_ratio=1.1)

    def test_update_fraction_bounds(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(read_ratio=0.5, update_fraction=1.5)

    def test_delete_fraction_cannot_exceed_writes(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(read_ratio=0.9, delete_fraction=0.2)

    def test_positive_sizes_required(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(read_ratio=0.5, n_keys=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(read_ratio=0.5, key_bytes=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(read_ratio=0.5, krd_mean_ops=0)

    def test_label_defaults_to_rr(self):
        assert "50%" in WorkloadSpec(read_ratio=0.5).label

    def test_label_uses_name(self):
        assert WorkloadSpec(read_ratio=0.5, name="w1").label == "w1"

    def test_with_read_ratio_preserves_rest(self):
        spec = WorkloadSpec(read_ratio=0.5, value_bytes=321, name="x")
        other = spec.with_read_ratio(0.9)
        assert other.read_ratio == 0.9
        assert other.value_bytes == 321

    def test_to_profile(self):
        spec = WorkloadSpec(read_ratio=0.5, value_bytes=128, update_fraction=0.4)
        profile = spec.to_profile()
        assert profile.value_bytes == 128
        assert profile.update_fraction == 0.4
        assert profile.record_bytes > 128

    def test_frozen(self):
        spec = WorkloadSpec(read_ratio=0.5)
        with pytest.raises(AttributeError):
            spec.read_ratio = 0.9


class TestMGRastWorkload:
    def test_large_krd(self):
        """MG-RAST's defining property: huge key-reuse distance (§1)."""
        assert mgrast_workload(0.5).krd_mean_ops >= 100_000

    def test_named(self):
        assert "mgrast" in mgrast_workload(0.7).name

    def test_read_ratio_passthrough(self):
        assert mgrast_workload(0.3).read_ratio == 0.3

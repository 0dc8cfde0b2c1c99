from repro.sim.disk import DiskModel
from repro.sim.hardware import DEFAULT_SERVER


class TestDiskModel:
    def test_compaction_accounting(self):
        disk = DiskModel(DEFAULT_SERVER)
        disk.account_compaction_bytes(12345)
        assert disk.stats.compaction_bytes == 12345

import pytest

from repro.errors import WorkloadError
from repro.workload.spec import READ, WRITE
from repro.workload.trace import QueryRecord, Trace


def make_trace(pattern, dt=1.0):
    """pattern: string of 'r'/'w', one record per second."""
    return Trace(
        [
            QueryRecord(timestamp=i * dt, kind=READ if c == "r" else WRITE, key=f"k{i % 5}")
            for i, c in enumerate(pattern)
        ]
    )


class TestTrace:
    def test_rejects_unordered(self):
        with pytest.raises(WorkloadError):
            Trace([QueryRecord(2.0, READ, "a"), QueryRecord(1.0, READ, "b")])

    def test_len_and_iteration(self):
        t = make_trace("rwr")
        assert len(t) == 3
        assert [r.kind for r in t] == [READ, WRITE, READ]

    def test_duration(self):
        assert make_trace("rrrr").duration == pytest.approx(3.0)

    def test_empty_duration(self):
        assert Trace([]).duration == 0.0

    def test_read_ratio(self):
        assert make_trace("rrw").read_ratio() == pytest.approx(2 / 3)

    def test_read_ratio_empty_raises(self):
        with pytest.raises(WorkloadError):
            Trace([]).read_ratio()

    def test_windows_partition_all_records(self):
        t = make_trace("r" * 100)
        windows = list(t.windows(window_seconds=10))
        assert sum(len(recs) for _, recs in windows) == 100

    def test_windows_have_correct_starts(self):
        t = make_trace("r" * 25)
        starts = [start for start, _ in t.windows(window_seconds=10)]
        assert starts == [0.0, 10.0, 20.0]

    def test_empty_interior_window_emitted(self):
        records = [QueryRecord(0.0, READ, "a"), QueryRecord(25.0, READ, "b")]
        windows = list(Trace(records).windows(window_seconds=10))
        assert len(windows) == 3
        assert windows[1][1] == []

    def test_windows_invalid_width(self):
        with pytest.raises(WorkloadError):
            list(make_trace("r").windows(0))

    def test_key_reuse_distances(self):
        records = [
            QueryRecord(0.0, READ, "a"),
            QueryRecord(1.0, READ, "b"),
            QueryRecord(2.0, READ, "a"),  # distance 1 (one op between)
            QueryRecord(3.0, READ, "a"),  # distance 0
        ]
        distances = Trace(records).key_reuse_distances()
        assert list(distances) == [1.0, 0.0]

    def test_krd_bounded_window(self):
        t = make_trace("r" * 50)
        full = t.key_reuse_distances()
        bounded = t.key_reuse_distances(max_records=10)
        assert len(bounded) < len(full)

"""Range scans and batch reads on the materialized engine."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DatastoreError
from repro.lsm.engine import LSMEngine

from tests.conftest import make_knobs


@pytest.fixture
def engine(small_knobs):
    e = LSMEngine(small_knobs)
    for i in range(0, 100, 2):  # even keys only
        e.put(f"k{i:03d}", f"v{i}".encode())
    return e


class TestScan:
    def test_inclusive_range(self, engine):
        rows = engine.scan("k010", "k020")
        assert [k for k, _ in rows] == ["k010", "k012", "k014", "k016", "k018", "k020"]

    def test_values_correct(self, engine):
        rows = dict(engine.scan("k000", "k004"))
        assert rows["k002"] == b"v2"

    def test_empty_range(self, engine):
        assert engine.scan("k001", "k001") == []

    def test_invalid_range_rejected(self, engine):
        with pytest.raises(DatastoreError):
            engine.scan("k020", "k010")

    def test_limit(self, engine):
        rows = engine.scan("k000", "k099", limit=3)
        assert len(rows) == 3
        assert rows[0][0] == "k000"

    def test_scan_spans_memtable_and_tables(self, engine):
        engine.flush()
        engine.put("k001", b"fresh")  # lands in the new memtable
        rows = dict(engine.scan("k000", "k002"))
        assert rows == {"k000": b"v0", "k001": b"fresh", "k002": b"v2"}

    def test_newest_version_wins_across_tables(self, engine):
        engine.flush()
        engine.put("k010", b"updated")
        engine.flush()
        rows = dict(engine.scan("k010", "k010"))
        assert rows["k010"] == b"updated"

    def test_tombstones_excluded(self, engine):
        engine.delete("k004")
        rows = dict(engine.scan("k000", "k008"))
        assert "k004" not in rows

    def test_scan_advances_clock(self, engine):
        engine.flush()
        t0 = engine.clock.now
        engine.scan("k000", "k099")
        assert engine.clock.now > t0

    def test_scan_streams_read_bytes_not_written_ones(self, engine):
        """A scan's table bytes are a sequential *read*: booking them as
        written inflated anything that reads write volume."""
        engine.flush()
        engine.idle_until_compact()
        tables = engine.layout.all_tables()
        overlapped = sum(t.size_bytes * t.range_fraction("k010", "k050") for t in tables)
        assert overlapped > 0
        written, read = engine.disk.stats.seq_bytes_written, engine.disk.stats.seq_bytes_read
        engine.scan("k010", "k050")
        assert engine.disk.stats.seq_bytes_written == written
        assert engine.disk.stats.seq_bytes_read == read + overlapped

    def test_scan_survives_compaction(self, small_knobs):
        engine = LSMEngine(small_knobs)
        for i in range(2000):
            engine.put(f"k{i:05d}", b"x" * 60)
        engine.idle_until_compact()
        rows = engine.scan("k00100", "k00109")
        assert len(rows) == 10

    @given(
        start=st.integers(min_value=0, max_value=99),
        span=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scan_matches_point_gets(self, start, span):
        engine = LSMEngine(make_knobs(memtable_space_bytes=8 * 1024))
        model = {}
        for i in range(0, 100, 3):
            engine.put(f"k{i:03d}", f"v{i}".encode())
            model[f"k{i:03d}"] = f"v{i}".encode()
        lo, hi = f"k{start:03d}", f"k{min(start + span, 999):03d}"
        expected = sorted((k, v) for k, v in model.items() if lo <= k <= hi)
        assert engine.scan(lo, hi) == expected


class TestMultiGet:
    def test_returns_all_requested(self, engine):
        out = engine.multi_get(["k000", "k001", "k002"])
        assert out == {"k000": b"v0", "k001": None, "k002": b"v2"}

    def test_counts_each_read(self, engine):
        before = engine.stats.reads
        engine.multi_get(["k000", "k002", "k004"])
        assert engine.stats.reads == before + 3

    def test_empty_batch_costs_nothing(self, engine):
        t0 = engine.clock.now
        assert engine.multi_get([]) == {}
        assert engine.clock.now == t0

    def test_matches_point_gets(self, small_knobs):
        def build():
            e = LSMEngine(make_knobs())
            for i in range(0, 60, 2):
                e.put(f"k{i:03d}", f"v{i}".encode())
            e.flush()
            return e

        keys = [f"k{i:03d}" for i in range(60)]
        batched = build().multi_get(keys)
        point = {k: build().get(k) for k in keys}
        assert batched == point

    def test_batch_cheaper_than_point_gets(self, small_knobs):
        """The batched cost path charges one dispatch and overlaps CPU
        with disk, so N keys in one batch take less simulated time than
        N independent gets."""

        def build():
            e = LSMEngine(make_knobs())
            for i in range(200):
                e.put(f"k{i:03d}", b"x" * 40)
            e.flush()
            return e

        keys = [f"k{i:03d}" for i in range(0, 200, 2)]
        eb = build()
        t0 = eb.clock.now
        eb.multi_get(keys)
        batched_dt = eb.clock.now - t0

        ep = build()
        t0 = ep.clock.now
        for k in keys:
            ep.get(k)
        point_dt = ep.clock.now - t0

        assert batched_dt < point_dt

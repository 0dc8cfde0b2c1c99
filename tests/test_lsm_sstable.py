import pickle

import numpy as np
import pytest

from repro.lsm import sstable as sstable_module
from repro.lsm.engine import OP_READ, LSMEngine
from repro.lsm.record import Record
from repro.lsm.sstable import BLOCK_BYTES, SSTable, merge_records, split_into_tables

from .conftest import make_knobs


def recs(*keys, ts=1.0, size=20):
    return [Record(key=k, timestamp=ts, value=b"x" * size) for k in sorted(keys)]


def make_table(*keys, table_id=1, ts=1.0, level=0):
    return SSTable(table_id, recs(*keys, ts=ts), fp_chance=0.01, level=level)


class TestSSTable:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SSTable(1, [], fp_chance=0.01)

    def test_rejects_unsorted(self):
        rows = [Record("b", 1.0, b""), Record("a", 1.0, b"")]
        with pytest.raises(ValueError):
            SSTable(1, rows, fp_chance=0.01)

    def test_rejects_duplicate_keys(self):
        rows = [Record("a", 1.0, b""), Record("a", 2.0, b"")]
        with pytest.raises(ValueError):
            SSTable(1, rows, fp_chance=0.01)

    def test_rejects_a_late_out_of_order_or_prefix_key(self):
        for keys in (["a", "b", "c", "e", "d"], ["a", "ab", "ab"], ["ab", "a"]):
            rows = [Record(k, 1.0, b"") for k in keys]
            with pytest.raises(ValueError):
                SSTable(1, rows, fp_chance=0.01)

    def test_nul_keys_take_the_python_order_check(self):
        """A byte column reads "a" and "a\x00" alike, so a set with a
        NUL is checked on the strings: this pair is sorted and distinct."""
        rows = [Record("a", 1.0, b""), Record("a\x00", 1.0, b"")]
        t = SSTable(1, rows, fp_chance=0.01)
        assert t.keys_array() is None and t.might_contain("a\x00")
        with pytest.raises(ValueError):
            SSTable(1, rows[::-1], fp_chance=0.01)

    def test_size_is_the_records_stored_sizes(self):
        t = make_table("c", "a", "b")
        assert t.size_bytes == sum(r.size_bytes for r in t.records()) == 3 * (40 + 1 + 20)
        assert t.keys_array().tolist() == [b"a", b"b", b"c"]

    def test_min_max_keys(self):
        t = make_table("b", "d", "a")
        assert t.min_key == "a"
        assert t.max_key == "d"

    def test_locate_existing(self):
        t = make_table("a", "b", "c")
        assert t.record_at(t.locate("b")[1]).key == "b"

    def test_locate_missing(self):
        t = make_table("a", "c")
        assert t.locate("b")[1] == -1

    def test_might_contain_range_prefilter(self):
        t = make_table("b", "c")
        assert not t.might_contain("a")
        assert not t.might_contain("z")

    def test_might_contain_members(self):
        t = make_table("a", "b", "c")
        assert all(t.might_contain(k) for k in "abc")

    def test_overlaps(self):
        a = make_table("a", "c", table_id=1)
        b = make_table("b", "d", table_id=2)
        c = make_table("e", "f", table_id=3)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_overlaps_range(self):
        t = make_table("c", "e")
        assert t.overlaps_range("a", "c")
        assert not t.overlaps_range("f", "g")

    def test_size_and_blocks(self):
        t = make_table("a", "b")
        assert t.size_bytes == sum(r.size_bytes for r in t.records())
        assert t.size_bytes <= BLOCK_BYTES  # one block: every key's block is 0
        assert t.locate("a")[0] == t.locate("b")[0] == 0

    def test_block_of_within_range(self):
        t = make_table(*[f"k{i:03d}" for i in range(50)])
        blocks = -(-t.size_bytes // BLOCK_BYTES)
        assert 0 <= t.locate("k025")[0] < max(blocks, 1)


class TestKeyColumn:
    """``keys_array()`` is the byte column built with the table: once,
    kept, never pickled, and None wherever a batched lookup could not
    match ``locate``."""

    def test_built_once_and_kept(self, monkeypatch):
        built = []
        real = sstable_module._key_column
        monkeypatch.setattr(
            sstable_module, "_key_column", lambda keys: built.append(1) or real(keys)
        )
        t = make_table("b", "a", "c")
        column = t.keys_array()
        assert column is t.keys_array() is t.keys_array()
        assert column.dtype.kind == "S" and len(built) == 1

    @pytest.mark.parametrize("keys", [("a", "a\x00"), ("a", "caf\u00e9"), ("\u4e16",)])
    def test_none_for_nul_and_non_ascii_keys(self, keys):
        t = make_table(*keys)
        assert t.keys_array() is None
        assert all(t.record_at(t.locate(k)[1]).key == k for k in keys)

    def test_none_past_the_float64_guard(self):
        # Records carrying a stored size this large: (n - 1) * size_bytes
        # leaves float64's exact integers, so blocks come from locate().
        huge = [tuple.__new__(Record, (k, 1.0, b"", 2**52)) for k in ("a", "b")]
        assert SSTable(1, huge, fp_chance=0.01).keys_array() is None
        fits = [tuple.__new__(Record, (k, 1.0, b"", 2**51)) for k in ("a", "b")]
        assert SSTable(1, fits, fp_chance=0.01).keys_array() is not None

    def test_pickle_is_unchanged_by_a_batch_probe(self):
        engine = LSMEngine(make_knobs())
        names = [f"k{i:04d}" for i in range(300)]
        for name in names:
            engine.put(name, b"v" * 40)
        table = engine.flush()
        assert engine.sstable_count == 1
        before = pickle.dumps(table)
        engine.execute_batch(np.full(len(names), OP_READ), names[::-1])
        assert engine.stats.bloom_true_positives == len(names)
        assert pickle.dumps(table) == before
        # ... and is what the records, filter and metadata say.
        fresh = SSTable(
            table.table_id, list(table.records()), 0.01, table.level, table.created_at
        )
        assert pickle.dumps(fresh) == before

    def test_a_restored_table_rebuilds_an_equal_column(self):
        t = make_table(*[f"k{i:03d}" for i in range(40)], "", "a\x7f")
        restored = pickle.loads(pickle.dumps(t))
        assert restored.keys_array() is not t.keys_array()
        assert restored.keys_array().dtype == t.keys_array().dtype
        assert restored.keys_array().tolist() == t.keys_array().tolist()


class TestMergeRecords:
    def test_newest_version_wins(self):
        old = recs("a", ts=1.0)
        new = recs("a", ts=2.0, size=30)
        merged = merge_records([old, new])
        assert len(merged) == 1
        assert merged[0].timestamp == 2.0

    def test_union_of_keys_sorted(self):
        merged = merge_records([recs("b", "d"), recs("a", "c")])
        assert [r.key for r in merged] == ["a", "b", "c", "d"]

    def test_tombstones_kept_by_default(self):
        runs = [[Record.tombstone("a", 2.0)], recs("a", ts=1.0)]
        merged = merge_records(runs)
        assert merged[0].is_tombstone

    def test_tombstones_dropped_on_full_merge(self):
        runs = [[Record.tombstone("a", 2.0)], recs("a", ts=1.0)]
        assert merge_records(runs, drop_tombstones=True) == []

    def test_tombstone_shadows_only_older(self):
        runs = [[Record.tombstone("a", 1.0)], recs("a", ts=2.0)]
        merged = merge_records(runs, drop_tombstones=True)
        assert len(merged) == 1 and not merged[0].is_tombstone


class TestSplitIntoTables:
    def test_respects_max_bytes(self):
        rows = recs(*[f"k{i:03d}" for i in range(100)])
        counter = iter(range(1, 100))
        tables = split_into_tables(
            rows, max_table_bytes=500, next_id=lambda: next(counter),
            fp_chance=0.01, level=1, created_at=0.0,
        )
        assert len(tables) > 1
        assert all(t.level == 1 for t in tables)

    def test_tables_non_overlapping_and_ordered(self):
        rows = recs(*[f"k{i:03d}" for i in range(60)])
        counter = iter(range(1, 100))
        tables = split_into_tables(
            rows, max_table_bytes=400, next_id=lambda: next(counter),
            fp_chance=0.01, level=1, created_at=0.0,
        )
        for a, b in zip(tables, tables[1:]):
            assert a.max_key < b.min_key

    def test_all_records_preserved(self):
        rows = recs(*[f"k{i:03d}" for i in range(37)])
        counter = iter(range(1, 100))
        tables = split_into_tables(
            rows, max_table_bytes=300, next_id=lambda: next(counter),
            fp_chance=0.01, level=2, created_at=0.0,
        )
        assert sum(t.key_count for t in tables) == 37

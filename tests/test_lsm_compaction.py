import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.errors import ConfigurationError
from repro.lsm.compaction import (
    L0_COMPACTION_TRIGGER,
    LeveledStrategy,
    SizeTieredStrategy,
    TableLayout,
    make_strategy,
    size_buckets,
)
from repro.lsm.record import Record
from repro.lsm.sstable import SSTable

from tests.oracles import oracle_size_buckets

_ids = itertools.count(1)
_tasks = itertools.count(1)


def next_task_id():
    return next(_tasks)


def make_table(n_keys=10, size=20, level=0, prefix="k", created_at=0.0):
    rows = [
        Record(key=f"{prefix}{i:04d}", timestamp=1.0, value=b"x" * size)
        for i in range(n_keys)
    ]
    return SSTable(next(_ids), rows, fp_chance=0.01, level=level, created_at=created_at)


class TestTableLayout:
    def test_add_flushed_goes_to_l0(self):
        layout = TableLayout()
        layout.add_flushed(make_table())
        assert len(layout.levels[0]) == 1

    def test_table_count_and_bytes(self):
        layout = TableLayout()
        t1, t2 = make_table(), make_table()
        layout.add_flushed(t1)
        layout.add_at_level(t2, 2)
        assert layout.table_count == 2
        assert layout.total_bytes == t1.size_bytes + t2.size_bytes

    def test_remove(self):
        layout = TableLayout()
        t = make_table()
        layout.add_flushed(t)
        layout.remove([t])
        assert layout.table_count == 0

    def test_every_structural_change_is_a_new_epoch(self):
        layout = TableLayout()
        t1, t2 = make_table(), make_table()
        epochs = [layout.epoch]
        for change in (
            lambda: layout.add_flushed(t1),
            lambda: layout.add_at_level(t2, 1),
            lambda: layout.remove([t1]),
        ):
            change()
            layout.read_candidates("k0001")  # reading is not a change
            epochs.append(layout.epoch)
        assert len(set(epochs)) == 4

    def test_read_candidates_l0_newest_first(self):
        layout = TableLayout()
        t1 = make_table(created_at=1.0)
        t2 = make_table(created_at=2.0)
        layout.add_flushed(t1)
        layout.add_flushed(t2)
        cands = layout.read_candidates("k0001")
        assert cands[0] is t2 and cands[1] is t1

    def test_read_candidates_one_per_upper_level(self):
        layout = TableLayout()
        left = make_table(n_keys=5, prefix="a")
        right = make_table(n_keys=5, prefix="z")
        layout.add_at_level(left, 1)
        layout.add_at_level(right, 1)
        cands = layout.read_candidates("a0001")
        assert cands == [left]

    def test_leveled_invariant_check(self):
        layout = TableLayout()
        layout.add_at_level(make_table(prefix="a"), 1)
        layout.add_at_level(make_table(prefix="a"), 1)  # overlapping!
        with pytest.raises(AssertionError):
            layout.check_leveled_invariant()

    def test_overlapping_query(self):
        layout = TableLayout()
        t = make_table(prefix="m")
        layout.add_at_level(t, 1)
        assert layout.overlapping(1, "m0000", "m9999") == [t]
        assert layout.overlapping(1, "a", "b") == []
        assert layout.overlapping(9, "a", "z") == []


class TestSizeTieredStrategy:
    def test_triggers_on_four_similar_tables(self):
        strategy = SizeTieredStrategy()
        layout = TableLayout()
        for _ in range(4):
            layout.add_flushed(make_table(n_keys=10))
        tasks = strategy.propose(layout, set(), next_task_id)
        assert len(tasks) == 1
        assert len(tasks[0].input_tables) == 4

    def test_no_trigger_below_threshold(self):
        strategy = SizeTieredStrategy()
        layout = TableLayout()
        for _ in range(3):
            layout.add_flushed(make_table())
        assert strategy.propose(layout, set(), next_task_id) == []

    def test_dissimilar_sizes_not_bucketed(self):
        strategy = SizeTieredStrategy()
        layout = TableLayout()
        for i in range(4):
            layout.add_flushed(make_table(n_keys=10 * (i + 1) ** 3))
        assert strategy.propose(layout, set(), next_task_id) == []

    def test_busy_tables_skipped(self):
        strategy = SizeTieredStrategy()
        layout = TableLayout()
        tables = [make_table() for _ in range(4)]
        for t in tables:
            layout.add_flushed(t)
        busy = {tables[0].table_id}
        assert strategy.propose(layout, busy, next_task_id) == []

    def test_full_merge_drops_tombstones(self):
        strategy = SizeTieredStrategy()
        layout = TableLayout()
        for _ in range(4):
            layout.add_flushed(make_table())
        task = strategy.propose(layout, set(), next_task_id)[0]
        assert task.drop_tombstones  # inputs == whole layout

    def test_partial_merge_keeps_tombstones(self):
        strategy = SizeTieredStrategy()
        layout = TableLayout()
        for _ in range(4):
            layout.add_flushed(make_table(n_keys=10))
        layout.add_at_level(make_table(n_keys=1000), 0)
        task = strategy.propose(layout, set(), next_task_id)[0]
        assert not task.drop_tombstones

    def test_min_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            SizeTieredStrategy(min_threshold=1)

    def test_io_bytes_is_double_input(self):
        strategy = SizeTieredStrategy()
        layout = TableLayout()
        for _ in range(4):
            layout.add_flushed(make_table())
        task = strategy.propose(layout, set(), next_task_id)[0]
        assert task.io_bytes == pytest.approx(2 * task.input_bytes)


class TestSizeBuckets:
    """One bucketing rule for the engine's tables and the analytic
    model's sizes, held to the ``(position, size)`` loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 64), max_size=24))
    def test_matches_the_pair_loop_on_ints_and_floats(self, sizes):
        floats = [float(s) for s in sizes]
        expected = oracle_size_buckets(sizes)
        assert size_buckets(sizes) == expected
        assert size_buckets(floats) == oracle_size_buckets(floats) == expected

    def test_ties_keep_their_order(self):
        assert size_buckets([8, 3, 8, 3, 100]) == [[1, 3], [0, 2], [4]]

    def test_the_running_average_moves_the_window(self):
        # 20 is outside 1.5x the first size but inside 1.5x the average.
        assert size_buckets([10, 15, 15, 15, 15, 20]) == [[0, 1, 2, 3, 4, 5]]


class TestLeveledStrategy:
    def test_l0_trigger(self):
        strategy = LeveledStrategy(sstable_target_bytes=1000)
        layout = TableLayout()
        for _ in range(L0_COMPACTION_TRIGGER):
            layout.add_flushed(make_table())
        tasks = strategy.propose(layout, set(), next_task_id)
        assert any(t.target_level == 1 for t in tasks)

    def test_l0_merge_includes_overlapping_l1(self):
        strategy = LeveledStrategy(sstable_target_bytes=1000)
        layout = TableLayout()
        l1 = make_table(prefix="k")
        layout.add_at_level(l1, 1)
        for _ in range(L0_COMPACTION_TRIGGER):
            layout.add_flushed(make_table(prefix="k"))
        task = [t for t in strategy.propose(layout, set(), next_task_id) if t.target_level == 1][0]
        assert l1 in task.input_tables

    def test_spill_when_level_over_budget(self):
        strategy = LeveledStrategy(sstable_target_bytes=100)
        layout = TableLayout()
        # Level 1 budget = 100 * 10 = 1000 bytes; add well beyond it.
        for i in range(30):
            layout.add_at_level(make_table(n_keys=2, prefix=f"p{i:02d}"), 1)
        tasks = strategy.propose(layout, set(), next_task_id)
        assert any(t.target_level == 2 for t in tasks)

    def test_level_capacity_grows_by_fanout(self):
        strategy = LeveledStrategy(sstable_target_bytes=100)
        assert strategy.level_capacity_bytes(2) == 10 * strategy.level_capacity_bytes(1)

    def test_invalid_target_size(self):
        with pytest.raises(ConfigurationError):
            LeveledStrategy(sstable_target_bytes=0)


class TestMakeStrategy:
    def test_size_tiered(self):
        assert isinstance(make_strategy(SIZE_TIERED, 1000), SizeTieredStrategy)

    def test_leveled(self):
        assert isinstance(make_strategy(LEVELED, 1000), LeveledStrategy)

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_strategy("MysteryStrategy", 1000)

import copy
import pickle
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.lsm.analytic import AnalyticLSMModel, _soft_min
from repro.lsm.background import compaction_rate
from repro.lsm.sstable import BLOCK_BYTES
from tests.oracles import reference_throughput
from tests.test_lsm_analytic_properties import assert_run_equals_oracle


MB = 1024 * 1024


def make_model(seed=1, noise=0.0, bias=0.0, **knob_overrides):
    # Production-scale knobs: the analytic model is meant for the real
    # hardware spec, unlike the per-op engine tests.
    from repro.config import cassandra_space
    from repro.lsm.knobs import EngineKnobs

    cfg = cassandra_space().configuration(**knob_overrides)
    return AnalyticLSMModel(
        EngineKnobs.from_configuration(cfg),
        seed=seed,
        noise_sigma=noise,
        run_bias_sigma=bias,
    )


def make_ring(load_keys=300_000):
    """A loaded 3-node RF=2 CassandraLike ring, one shooter per node."""
    from repro.datastore import CassandraLike, Cluster

    ds = CassandraLike()
    ring = Cluster(
        ds, ds.default_configuration(), n_nodes=3, replication_factor=2, seed=2,
    )
    ring.load(load_keys)
    return ring


class TestSoftMin:
    def test_single_value(self):
        assert _soft_min([5.0]) == pytest.approx(5.0)

    def test_close_to_min(self):
        assert _soft_min([100.0, 1e9]) == pytest.approx(100.0, rel=0.01)

    def test_below_hard_min_when_caps_close(self):
        assert _soft_min([100.0, 100.0]) < 100.0

    def test_ignores_infinity(self):
        assert np.isfinite(_soft_min([50.0, float("inf")]))

    def test_all_infinite(self):
        assert _soft_min([float("inf")]) == float("inf")


class TestStepping:
    def test_step_advances_time(self):
        m = make_model()
        m.run(0.5, 2.0, dt=2.0)
        assert m.t == pytest.approx(2.0)

    def test_step_rejects_bad_inputs(self):
        m = make_model()
        with pytest.raises(ValueError):
            m.run(0.5, 1.0, dt=0.0)
        with pytest.raises(ValueError):
            m.run(1.5, 1.0)

    def test_throughput_positive(self):
        m = make_model()
        [x] = m.run(0.5, 1.0)
        assert x > 0

    def test_run_returns_requested_steps(self):
        m = make_model()
        assert len(m.run(0.5, duration=30, dt=1.0)) == 30

    def test_writes_fill_memtable_and_flush(self):
        m = make_model()
        m.run(0.0, duration=120)
        assert m.total_flushes >= 1
        assert m.sstable_count >= 1

    def test_pure_reads_no_flushes(self):
        m = make_model()
        m.run(1.0, duration=60)
        assert m.total_flushes == 0

    def test_dataset_grows_with_inserts_only(self):
        m = make_model()
        before = m.dataset_bytes
        m.run(0.0, duration=30)
        grown = m.dataset_bytes
        assert grown > before
        # Updates don't grow the dataset.
        m.profile = replace(m.profile, update_fraction=1.0)
        m.run(0.0, duration=30)
        assert m.dataset_bytes == pytest.approx(grown)

    def test_ring_absorbs_each_live_nodes_share(self):
        """Two live nodes at RF 2, for 2 s at read ratio 0.5: each serves
        half the logical reads and every logical write."""
        ring = make_ring()
        ring.fail_node(2)
        before = [(node.t, node.total_ops) for node in ring.nodes]
        [x] = ring.run(0.5, 2.0, dt=2.0)
        moved = [(n.t - t, n.total_ops - ops) for n, (t, ops) in zip(ring.nodes, before)]
        assert moved[0] == moved[1] and moved[2] == (0.0, 0.0)
        assert moved[0][0] == 2.0
        assert moved[0][1] == pytest.approx(2.0 * (0.5 * x / 2 + 0.5 * x))

    def test_load_reaches_target(self):
        m = make_model()
        m.load(1_000_000)
        assert m.dataset_bytes >= 1_000_000 * m.profile.record_bytes * 0.99


class TestThroughputShape:
    """The qualitative relationships the paper's tuning exploits."""

    def test_default_write_heavy_beats_read_heavy(self):
        m = make_model()
        m.load(5_000_000)
        m.settle()
        m.cache_age = 1000.0
        assert m.sustainable_throughput(0.0) > m.sustainable_throughput(1.0)

    def test_more_tables_slower_reads(self):
        a = make_model()
        a.load(5_000_000)
        a.st_tables = [100 * MB] * 3
        b = make_model()
        b.load(5_000_000)
        b.st_tables = [100 * MB] * 30
        a.cache_age = b.cache_age = 1000.0
        assert a.sustainable_throughput(1.0) > b.sustainable_throughput(1.0)

    def test_bigger_cache_faster_reads(self):
        small = make_model(file_cache_size_in_mb=32)
        big = make_model(file_cache_size_in_mb=2048)
        for m in (small, big):
            m.load(5_000_000)
            m.settle()
            m.cache_age = 1000.0
        assert big.sustainable_throughput(1.0) > small.sustainable_throughput(1.0)

    def test_leveled_beats_size_tiered_on_reads(self):
        st_model = make_model(compaction_method=SIZE_TIERED)
        lv_model = make_model(compaction_method=LEVELED)
        for m in (st_model, lv_model):
            m.load(5_000_000)
            m.settle(max_seconds=2000)
            m.cache_age = 1000.0
        assert lv_model.sustainable_throughput(0.95) > st_model.sustainable_throughput(0.95)

    def test_size_tiered_beats_leveled_on_writes(self):
        st_tp = np.mean(_loaded(SIZE_TIERED).run(0.05, 120))
        lv_tp = np.mean(_loaded(LEVELED).run(0.05, 120))
        assert st_tp > lv_tp

    def test_compaction_backlog_throttles(self):
        starved = make_model(compaction_throughput_mb_per_sec=8, concurrent_compactors=1)
        healthy = make_model(compaction_throughput_mb_per_sec=32, concurrent_compactors=4)
        for m in (starved, healthy):
            m.load(5_000_000)
            m.run(0.5, duration=120)
        assert starved.sstable_count >= healthy.sstable_count


class TestReconfigure:
    def test_switch_to_leveled_restructures(self):
        m = make_model()
        m.load(3_000_000)
        from repro.lsm.knobs import EngineKnobs
        from repro.config import cassandra_space

        cfg = cassandra_space().configuration(compaction_method=LEVELED)
        m.reconfigure(EngineKnobs.from_configuration(cfg))
        assert m.is_leveled
        assert sum(m.level_bytes[1:]) > 0
        assert m.st_tables == []

    def test_switch_back_to_size_tiered(self):
        m = make_model(compaction_method=LEVELED)
        m.load(3_000_000)
        from repro.lsm.knobs import EngineKnobs
        from repro.config import cassandra_space

        cfg = cassandra_space().configuration(compaction_method=SIZE_TIERED)
        m.reconfigure(EngineKnobs.from_configuration(cfg))
        assert not m.is_leveled
        assert sum(m.level_bytes[1:]) == 0
        assert sum(m.st_tables) > 0

    def test_cache_resize_loses_some_warmth(self):
        m = make_model()
        m.cache_age = 1000.0
        from repro.lsm.knobs import EngineKnobs
        from repro.config import cassandra_space

        cfg = cassandra_space().configuration(file_cache_size_in_mb=1024)
        m.reconfigure(EngineKnobs.from_configuration(cfg))
        assert m.cache_age < 1000.0


class TestDeterminismAndNoise:
    def test_zero_noise_deterministic(self):
        a = make_model(seed=5)
        b = make_model(seed=5)
        for m in (a, b):
            m.load(1_000_000)
        assert a.run(0.5, 30) == b.run(0.5, 30)

    def test_run_bias_applied_once(self):
        m = make_model(bias=0.05, seed=3)
        assert m.run_bias != 1.0
        assert 0.85 <= m.run_bias <= 1.15

    def test_noise_changes_steps(self):
        m = make_model(noise=0.05, seed=3)
        m.load(1_000_000)
        assert len(set(round(x) for x in m.run(0.5, 20))) > 1


def _loaded(method):
    m = make_model(compaction_method=method)
    m.load(5_000_000)
    m.settle()
    m.cache_age = 1000.0
    return m


class TestRunDuration:
    @pytest.mark.parametrize("duration", [0, 0.0, -3.0])
    def test_no_time_left_is_an_error_not_a_free_second(self, duration):
        m = make_model()
        with pytest.raises(ValueError):
            m.run(0.5, duration)
        assert m.t == 0.0 and m.total_ops == 0.0


class TestTermTable:
    """The per-regime term table is derived state: it must never be
    stale and never reach a pickle."""

    @staticmethod
    def _fresh_twin(m):
        """A copy of ``m`` in the same state that has never solved."""
        twin = pickle.loads(pickle.dumps(m))
        twin._terms = None
        return twin

    def _assert_solves_like_fresh(self, m):
        twin = self._fresh_twin(m)
        for rr in (0.0, 0.3, 1.0):
            assert m.sustainable_throughput(rr) == twin.sustainable_throughput(rr)
        assert m.cache_hit_ratio() == twin.cache_hit_ratio()

    def _solved_model(self):
        m = make_model()
        m.load(2_000_000)
        m.run(0.3, 20)
        m.sustainable_throughput(0.3)
        return m

    def test_reconfigure_invalidates(self):
        from repro.config import cassandra_space
        from repro.lsm.knobs import EngineKnobs

        m = self._solved_model()
        before = m.sustainable_throughput(0.3)
        cfg = cassandra_space().configuration(
            concurrent_reads=96, file_cache_size_in_mb=64, memtable_flush_writers=1
        )
        m.reconfigure(EngineKnobs.from_configuration(cfg))
        assert m.sustainable_throughput(0.3) != before
        self._assert_solves_like_fresh(m)

    def test_rebound_knobs_invalidate(self):
        m = self._solved_model()
        before = m.sustainable_throughput(0.3)
        m.knobs = replace(m.knobs, concurrent_writes=16, bloom_fp_chance=0.05)
        assert m.sustainable_throughput(0.3) != before
        self._assert_solves_like_fresh(m)

    def test_rebound_costs_and_hardware_invalidate(self):
        m = self._solved_model()
        before = m.sustainable_throughput(0.3)
        m.costs = replace(m.costs, cpu_write=m.costs.cpu_write * 3)
        after_costs = m.sustainable_throughput(0.3)
        assert after_costs != before
        self._assert_solves_like_fresh(m)
        m.hardware = replace(m.hardware, cpu_cores=m.hardware.cpu_cores // 2)
        assert m.sustainable_throughput(0.3) != after_costs
        self._assert_solves_like_fresh(m)

    def test_replaced_profile_invalidates(self):
        m = self._solved_model()
        before = m.sustainable_throughput(0.3)
        m.profile = replace(m.profile, value_bytes=4000, krd_mean_ops=5_000.0)
        assert m.sustainable_throughput(0.3) != before
        self._assert_solves_like_fresh(m)

    def test_profile_is_frozen(self):
        with pytest.raises(AttributeError):
            make_model().profile.update_fraction = 1.0

    def test_pickle_is_unchanged_by_a_solve(self):
        m = make_model(noise=0.015, bias=0.02)
        m.load(1_000_000)
        blob = pickle.dumps(m)
        m.sustainable_throughput(0.4)
        m.cache_hit_ratio()
        assert pickle.dumps(m) == blob
        assert "_terms" not in m.__getstate__()

    def test_round_tripped_model_steps_bit_identically(self):
        m = make_model(noise=0.015, bias=0.02, seed=11)
        m.load(1_000_000)
        m.run(0.4, 10)
        clone = pickle.loads(pickle.dumps(m))
        assert clone._terms is None
        assert m.run(0.6, 40) == clone.run(0.6, 40)
        assert pickle.dumps(m) == pickle.dumps(clone)


class TestStepStructureTraps:
    """Layouts and moments where a stepping loop that derives its
    per-segment terms too rarely (or absorbs a step through the wrong
    path) goes wrong.  Each run is held to the per-second oracle, bit for
    bit: the throughput series and the state after every step."""

    def test_chained_merge_keeps_backlog_length(self):
        """A merge completes and its output at once triggers the next:
        the backlog is one task long before and after, yet a read checks
        four tables where it checked seven."""
        m = make_model(noise=0.015, bias=0.02)
        m.load(2_000_000)
        m.settle(max_seconds=50_000)
        m.st_tables = [400.0 * MB] * 3 + [100.0 * MB] * 4
        m._maybe_trigger_size_tiered()
        assert len(m.backlog) == 1 and m.backlog[0].payload[0] == (3, 4, 5, 6)
        done = m.total_compactions
        assert_run_equals_oracle(m, 1.0, 120)
        assert m.total_compactions == done + 1
        assert len(m.backlog) == 1 and len(m.st_tables) == 4

    def test_the_chained_merge_trap_is_live(self, monkeypatch):
        """Terms keyed on the backlog length alone (a stale segment
        passed off as current) must trip the trap above."""
        revalidate = AnalyticLSMModel._segment

        def backlog_keyed(model, t):
            if t.segment is not None:
                t.segment.n_checked = model.tables_bloom_checked
            return revalidate(model, t)

        monkeypatch.setattr(AnalyticLSMModel, "_segment", backlog_keyed)
        with pytest.raises(AssertionError):
            self.test_chained_merge_keeps_backlog_length()

    @pytest.mark.parametrize("method", [SIZE_TIERED, LEVELED])
    def test_several_flushes_inside_one_step(self, method):
        m = make_model(noise=0.015, compaction_method=method)
        m.load(500_000)
        m.knobs = replace(
            m.knobs, memtable_space_bytes=8 * MB, memtable_cleanup_threshold=0.5
        )
        flushed = m.total_flushes
        assert_run_equals_oracle(m, 0.0, 30)
        assert m.total_flushes - flushed >= 2 * 30

    @pytest.mark.parametrize("method", [SIZE_TIERED, LEVELED])
    def test_half_trigger_crossed_both_ways(self, method):
        """Up as the memtable fills, down as it flushes, several times."""
        m = make_model(noise=0.015, bias=0.02, compaction_method=method)
        m.load(1_000_000)
        half = 0.5 * m.knobs.flush_trigger_bytes
        flushed = m.total_flushes
        sides = set()
        for _ in range(40):
            assert_run_equals_oracle(m, 0.2, 10)
            sides.add(m.memtable_bytes > half)
        assert sides == {True, False} and m.total_flushes >= flushed + 2

    def test_working_set_outgrows_the_cache_mid_run(self):
        m = make_model(noise=0.015, file_cache_size_in_mb=32)
        m.profile = replace(m.profile, update_fraction=0.0)
        m.load(20_000)
        m.cache_age = 500.0
        pages = m.knobs.file_cache_bytes / BLOCK_BYTES
        assert m.dataset_bytes / BLOCK_BYTES <= pages
        states = assert_run_equals_oracle(m, 0.3, 20)
        assert m.dataset_bytes / BLOCK_BYTES > pages
        # Steady hit 1.0 while the data fit, the che-approximation after.
        assert states[0].cache_hit_ratio > 0.99 > states[-1].cache_hit_ratio

    def test_reconfigure_between_runs(self):
        """A strategy switch each way and a cache resize, mid-backlog."""
        from repro.config import cassandra_space
        from repro.lsm.knobs import EngineKnobs

        m = make_model(noise=0.015, bias=0.02)
        m.load(2_000_000)
        for overrides in (
            dict(compaction_method=LEVELED),
            dict(compaction_method=LEVELED, file_cache_size_in_mb=64),
            dict(concurrent_compactors=1, compaction_throughput_mb_per_sec=8),
            dict(file_cache_size_in_mb=2048, memtable_cleanup_threshold=0.1),
        ):
            cfg = cassandra_space().configuration(**overrides)
            m.reconfigure(EngineKnobs.from_configuration(cfg))
            for rr in (0.1, 0.9):
                assert_run_equals_oracle(m, rr, 45)
        assert m.total_flushes and m.total_compactions

    def test_direct_layout_assignment(self):
        """The segment terms are revalidated from the layout itself, so
        writing the lists directly (as tests and the strategy switch do)
        cannot leave them stale."""
        m = make_model(noise=0.015)
        m.load(1_000_000)
        m.run(0.5, 5)
        m.st_tables = [100.0 * MB] * 30
        assert m.sustainable_throughput(0.5) == reference_throughput(m, 0.5)
        assert_run_equals_oracle(m, 0.5, 5)
        m.st_tables = m.st_tables[:3]
        assert m.sustainable_throughput(0.5) == reference_throughput(m, 0.5)

        lv = make_model(noise=0.015, compaction_method=LEVELED)
        lv.load(1_000_000)
        lv.run(0.5, 5)
        lv.l0_tables = [64.0 * MB] * 3
        assert lv.sustainable_throughput(0.5) == reference_throughput(lv, 0.5)
        lv.level_bytes = [0.0, 300.0 * MB, 0.0, 2000.0 * MB]
        assert lv.sustainable_throughput(0.5) == reference_throughput(lv, 0.5)
        assert_run_equals_oracle(lv, 0.5, 5)

    def test_head_compaction_ending_exactly_on_the_budget(self):
        """A head task whose remaining bytes equal the step's drain
        budget completes in that step: the fast path is for a head that
        outlasts the budget strictly."""
        m = make_model(noise=0.015)
        m.load(1_000_000)
        m.settle(max_seconds=50_000)
        m.st_tables = [100.0 * MB] * 4
        m._maybe_trigger_size_tiered()
        assert len(m.backlog) == 1
        budget = compaction_rate(m.knobs, 1) * m.costs.compaction_io_factor * 1.0
        m.backlog[0].remaining_io_bytes = budget
        done = m.total_compactions
        states = assert_run_equals_oracle(m, 1.0, 3)
        assert m.total_compactions == done + 1
        assert states[0].compaction_backlog_bytes == 0 and states[0].sstable_count == 1

    def test_flush_that_queues_a_merge_drains_at_the_new_rate(self):
        """A flush lands while a long merge is queued and completes a
        bucket of four: the step's drain runs at the two-task rate, not
        at the one-task rate the segment was derived with."""
        m = make_model(noise=0.015, concurrent_compactors=4)
        m.load(500_000)
        m.settle(max_seconds=50_000)
        trigger = m.knobs.flush_trigger_bytes
        m.st_tables = [4000.0 * MB] * 4 + [trigger] * 3
        m._maybe_trigger_size_tiered()
        assert len(m.backlog) == 1
        m.memtable_bytes = trigger * 0.999
        rates = compaction_rate(m.knobs, 1), compaction_rate(m.knobs, 2)
        assert rates[0] < rates[1]
        assert_run_equals_oracle(m, 0.0, 3)
        assert len(m.backlog) == 2 and m.total_compactions == 0

    def test_noiseless_model_draws_nothing(self):
        m = make_model(noise=0.0, bias=0.02, seed=9)
        m.load(500_000)
        position = m.rng.bit_generator.state
        m.run(0.5, 30)
        m.run(0.5, 1)
        assert m.rng.bit_generator.state == position

    def test_pickle_carries_no_derived_state(self):
        m = make_model(noise=0.015, bias=0.02, seed=11)
        m.load(1_000_000)
        assert_run_equals_oracle(m, 0.4, 60)    # byte-equal to a twin that never tabled
        assert "_terms" not in m.__getstate__()
        # (TestTermTable: a round-tripped model continues bit-identically.)


class TestQueuedMergeIndices:
    @pytest.mark.xfail(
        strict=True,
        reason="a queued st_merge holds *positions* in st_tables, which a sibling "
        "merge's completion shifts; fixing it moves sim_ops_per_s, so it is its own "
        "contract-change PR (EXPERIMENTS.md, Known divergences)",
    )
    def test_queued_merge_consumes_the_tables_it_was_created_for(self):
        """Eight similar flushes queue merges of tables (0..3) and (4..7);
        each should rewrite its own four tables, once.  Today the first
        completion rebuilds the list, the second task's positions then
        name other tables (it "merges" the first one's output), and a
        third merge is queued for the second task's own tables."""
        m = make_model()
        sizes = [64.0 * MB + i for i in range(8)]
        for size in sizes:
            m._flush(size)
        assert [task.payload[0] for task in m.backlog] == [(0, 1, 2, 3), (4, 5, 6, 7)]
        consumed = []
        complete = m._complete

        def recording(task):
            positions, total = task.payload
            found = sum(s for i, s in enumerate(m.st_tables) if i in positions)
            consumed.append((total, found))
            complete(task)

        m._complete = recording
        m.settle(max_seconds=50_000)
        assert all(total == found for total, found in consumed)
        assert m.total_compactions == 2       # one rewrite per table per tier
        assert sorted(m.st_tables) == [sum(sizes[:4]), sum(sizes[4:])]


class TestRejectedCallsTouchNothing:
    """Arguments are checked before any state moves — and before the
    block noise draw, so a rejected call leaves the stream where it was."""

    BAD = [
        dict(read_ratio=0.5, duration=10, dt=0),
        dict(read_ratio=0.5, duration=10, dt=-1.0),
        dict(read_ratio=0.5, duration=0),
        dict(read_ratio=0.5, duration=float("nan")),
        dict(read_ratio=1.5, duration=10),
        dict(read_ratio=-0.1, duration=10),
        dict(read_ratio=float("nan"), duration=10),
    ]

    @pytest.mark.parametrize("kwargs", BAD)
    def test_model_run(self, kwargs):
        m = make_model(noise=0.015, bias=0.02, seed=4)
        m.load(500_000)
        m.run(0.3, 20)
        before = pickle.dumps(m)
        with pytest.raises(ValueError):
            m.run(**kwargs)
        assert pickle.dumps(m) == before     # t, layout, total_ops, RNG position

    def test_model_step(self):
        """One-second runs, on a model that never ran."""
        m = make_model(noise=0.015, seed=4)
        before = pickle.dumps(m)
        for args in ((0.5, 1.0, 0.0), (1.5, 1.0), (float("nan"), 1.0)):
            with pytest.raises(ValueError):
                m.run(*args)
        assert pickle.dumps(m) == before

    @pytest.mark.parametrize("kwargs", BAD)
    def test_cluster_run(self, kwargs):
        from repro.datastore import CassandraLike, Cluster

        ds = CassandraLike()
        cluster = Cluster(
            ds, ds.default_configuration(), n_nodes=3, replication_factor=2, seed=2
        )
        cluster.load(300_000)
        before = pickle.dumps(cluster.nodes)
        with pytest.raises(ValueError):
            cluster.run(**kwargs)
        if not 0.0 <= kwargs["read_ratio"] <= 1.0:
            with pytest.raises(ValueError):
                cluster.run(kwargs["read_ratio"], 1)
            with pytest.raises(ValueError):
                cluster.sustainable_throughput(kwargs["read_ratio"])
        assert cluster.t == 0.0 and pickle.dumps(cluster.nodes) == before


class TestNoArrayMathInAStep:
    """No array math per step: a run's numpy calls are O(1) in its length
    — the block noise draw and its conversion — and a ring's run makes
    none.  Counted under ``sys.setprofile``: a count, not a timing, so it
    cannot flake."""

    @staticmethod
    def _numpy_calls(fn):
        seen = []

        def is_numpy(obj):
            module = getattr(obj, "__module__", None) or ""
            owner = type(getattr(obj, "__self__", None)).__module__
            return module.startswith("numpy") or owner.startswith("numpy")

        def profiler(frame, event, arg):
            if event == "c_call" and is_numpy(arg):
                seen.append(arg.__name__)
            elif event == "call" and "numpy" in frame.f_code.co_filename:
                seen.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return seen

    def test_probe_sees_array_math(self):
        assert self._numpy_calls(lambda: np.sum(np.array([1.0, 2.0]) ** 2.0))

    @pytest.mark.parametrize("method", [SIZE_TIERED, LEVELED])
    def test_model_step(self, method):
        m = make_model(noise=0.015, bias=0.02, compaction_method=method)
        m.load(1_000_000)
        short = self._numpy_calls(lambda: m.run(0.5, 50))
        long = self._numpy_calls(lambda: m.run(0.5, 500))
        assert m.total_flushes > 0          # the general paths ran too
        # (Whether the profiler sees the Cython-level draw varies by build.)
        assert short == long and set(long) <= {"standard_normal", "tolist"}
        assert self._numpy_calls(lambda: m.run(0.5, 1)) == long

    def test_ring_absorb(self):
        """Write-heavy: the nodes' absorbs flush and queue compactions,
        without array math and without touching the nodes' noise streams."""
        m = make_model(noise=0.0)
        m.load(1_000_000)
        assert self._numpy_calls(lambda: m.run(0.5, 50)) == []
        ring = make_ring(load_keys=600_000)
        streams = [node.rng.bit_generator.state for node in ring.nodes]
        flushed = [node.total_flushes for node in ring.nodes]
        assert self._numpy_calls(lambda: ring.run(0.0, 100)) == []
        assert all(n.total_flushes > f for n, f in zip(ring.nodes, flushed))
        assert [node.rng.bit_generator.state for node in ring.nodes] == streams

    def test_cluster_step(self):
        from repro.datastore import CassandraLike, Cluster

        ds = CassandraLike()
        cluster = Cluster(
            ds, ds.default_configuration(), n_nodes=3, replication_factor=2, seed=2,
        )
        cluster.load(600_000)
        cluster.fail_node(1)
        assert self._numpy_calls(lambda: cluster.run(0.5, 200)) == []
        assert self._numpy_calls(lambda: cluster.run(0.5, 1)) == []


class TestNodeSeconds:
    """One node-second kernel steps a server and every live node of a
    ring: it holds a node's segment terms across seconds, re-derived per
    structural event (a flush, a completed compaction, a half-trigger
    crossing), not per node-second; it solves once per step and never
    past a run's last; and a bare solve leaves the model as it was."""

    STORES = ("cassandra", "scylla")

    @staticmethod
    def _store(name):
        from repro.datastore import CassandraLike, ScyllaLike

        return {"cassandra": CassandraLike, "scylla": ScyllaLike}[name]()

    @staticmethod
    def _counting_solves(monkeypatch):
        """Count every segment ``solve`` call, keyed by the regime table
        (one per model) it was derived under."""
        from repro.lsm.analytic import _SegmentTerms

        counts, derive = {}, _SegmentTerms.__init__

        def counting(self, t, *args):
            derive(self, t, *args)
            solve = self.solve

            def counted(hit):
                counts[id(t)] = counts.get(id(t), 0) + 1
                return solve(hit)

            self.solve = counted

        monkeypatch.setattr(_SegmentTerms, "__init__", counting)
        return counts

    @pytest.mark.parametrize("store", STORES)
    def test_a_solve_leaves_the_pickled_model_as_it_was(self, store):
        """A server and a ring (a node down), after running: the bare
        solve writes back what it read.  A ScyllaLike tuner realizes its
        level at the solve's clock, which the twin does by hand."""
        from repro.datastore import Cluster

        ds = self._store(store)
        server = ds.new_analytic_instance(ds.default_configuration(), seed=4)
        server.load(500_000)
        server.run(0.3, 37)
        ring = Cluster(
            ds, ds.default_configuration(), n_nodes=3, replication_factor=2, seed=2
        )
        ring.load(300_000)
        ring.fail_node(1)
        ring.run(0.6, 23)
        for solve, models in (
            (lambda: server.sustainable_throughput(0.7), [server]),
            (lambda: ring.sustainable_throughput(0.7), [ring.nodes[0], ring.nodes[2]]),
        ):
            twins = copy.deepcopy(models)
            for twin in twins:
                if store == "scylla":
                    twin.autotuner.multiplier(twin.t)
            solve()
            assert [pickle.dumps(m) for m in models] == [pickle.dumps(t) for t in twins]

    def test_a_solve_leaves_a_fresh_scylla_model_as_it_was(self):
        """A ScyllaLike tuner draws its first level when it is built, so
        a bare solve on a model that never ran changes nothing either."""
        ds = self._store("scylla")
        for seed in (1, 2, 3):
            model = ds.new_analytic_instance(ds.default_configuration(), seed=seed)
            before = pickle.dumps(model)
            model.sustainable_throughput(0.7)
            assert pickle.dumps(model) == before

    @pytest.mark.parametrize("steps", [1, 7, 60])
    def test_a_run_solves_each_live_node_once_per_step(self, monkeypatch, steps):
        """``n`` steps are ``n`` solves of each live node's segment (none
        of a down node's, none past the last step); a bare solve is one."""
        ring = make_ring(load_keys=600_000)
        ring.fail_node(1)
        server = make_model(noise=0.015)
        server.load(500_000)
        models = ring.nodes + [server]
        for model in models:
            model._terms = None      # every segment derived under the count
        counts = self._counting_solves(monkeypatch)
        ring.run(0.2, steps)
        server.run(0.2, steps)
        assert [counts.get(id(m._terms), 0) for m in models] == [steps, 0, steps, steps]
        server.sustainable_throughput(0.2)
        ring.sustainable_throughput(0.2)
        assert [counts.get(id(m._terms), 0) for m in models] == [
            steps + 1, 0, steps + 1, steps + 1
        ]

    def test_ring_derives_segments_per_event_not_per_second(self, monkeypatch):
        seconds, rr = 600, 0.5
        ring = make_ring(load_keys=600_000)
        twin = copy.deepcopy(ring)

        def flushing(node):
            return node.memtable_bytes > 0.5 * node.knobs.flush_trigger_bytes

        # The twin, stepped one second at a time, counts the flag flips.
        sides, flips = [flushing(n) for n in twin.nodes], 0
        for _ in range(seconds):
            twin.run(rr, 1)
            now = [flushing(n) for n in twin.nodes]
            flips += sum(a is not b for a, b in zip(sides, now))
            sides = now

        before = [n.total_flushes + n.total_compactions for n in ring.nodes]
        derive, calls = AnalyticLSMModel._segment, []

        def counting(model, t):
            calls.append(model)
            return derive(model, t)

        monkeypatch.setattr(AnalyticLSMModel, "_segment", counting)
        ring.run(rr, seconds)
        moved = sum(
            n.total_flushes + n.total_compactions - b for n, b in zip(ring.nodes, before)
        )
        assert moved > 0 and flips > 0
        assert len(calls) <= len(ring.nodes) + moved + flips < seconds
        assert pickle.dumps(ring.nodes) == pickle.dumps(twin.nodes)

import numpy as np
import pytest

from repro.lsm.engine import OP_DELETE, OP_READ, OP_WRITE
from repro.workload.generator import _NAME_CHUNK, OperationBatch, OperationGenerator
from repro.workload.keydist import _KEY_NAME_FORMAT
from repro.workload.spec import WorkloadSpec


def make_gen(rr=0.5, seed=0, **kw):
    spec = WorkloadSpec(read_ratio=rr, n_keys=10_000, krd_mean_ops=100.0, **kw)
    return OperationGenerator(spec, np.random.default_rng(seed), loaded_keys=1000)


class TestLoadPhase:
    def test_load_is_sequential_inserts(self):
        gen = make_gen()
        block = gen.load_batch(10)
        assert np.all(block.kinds == OP_WRITE)
        assert block.key_ids.tolist() == list(range(1000, 1010))
        assert len(set(block.key_names())) == 10

    def test_load_continues_key_sequence(self):
        gen = make_gen()
        first = gen.load_batch(5)
        second = gen.load_batch(5)
        assert set(first.key_names()).isdisjoint(second.key_names())
        # Run-phase inserts take up where the load left the cursor.
        inserts = make_gen(rr=0.0, update_fraction=0.0)
        inserts.load_batch(5)
        assert inserts.operation_batch(3).key_ids.tolist() == [1005, 1006, 1007]


class TestRunPhase:
    def test_read_ratio_approximated(self):
        block = make_gen(rr=0.7).operation_batch(5000)
        assert 0.65 < np.count_nonzero(block.kinds == OP_READ) / len(block) < 0.75

    def test_pure_writes(self):
        assert np.all(make_gen(rr=0.0).operation_batch(200).kinds == OP_WRITE)

    def test_pure_reads(self):
        assert np.all(make_gen(rr=1.0).operation_batch(200).kinds == OP_READ)

    def test_deletes_generated(self):
        block = make_gen(rr=0.5, delete_fraction=0.2).operation_batch(3000)
        assert np.count_nonzero(block.kinds == OP_DELETE) > 0

    def test_updates_vs_inserts(self):
        all_updates = make_gen(rr=0.0, update_fraction=1.0).operation_batch(500)
        # Pure updates only touch the already-loaded range.
        assert all_updates.key_ids.max() < 1000

        all_inserts = make_gen(rr=0.0, update_fraction=0.0).operation_batch(500)
        assert all_inserts.key_ids.tolist() == list(range(1000, 1500))

    def test_write_ops_carry_value_size(self):
        block = make_gen(rr=0.5, value_bytes=99).operation_batch(200)
        assert np.all(block.value_sizes[block.kinds == OP_WRITE] == 99)

    def test_read_payload_empty(self):
        block = make_gen(rr=0.5, delete_fraction=0.2).operation_batch(500)
        assert np.all(block.value_sizes[block.kinds != OP_WRITE] == 0)

    def test_deterministic_given_seed(self):
        a = make_gen(seed=9).operation_batch(100)
        b = make_gen(seed=9).operation_batch(100)
        assert a.key_names() == b.key_names()
        assert np.array_equal(a.kinds, b.kinds)

    def test_reads_target_existing_keys(self):
        block = make_gen(rr=1.0).operation_batch(300)
        assert block.key_ids.max() < 1000
        assert all(int(name[4:]) < 1000 for name in block.key_names())


def batch_of(ids):
    ids = np.array(ids, dtype=np.int64)
    return OperationBatch(
        kinds=np.full(len(ids), OP_READ, dtype=np.int8),
        key_ids=ids,
        value_sizes=np.zeros(len(ids), dtype=np.int64),
    )


class TestKeyNames:
    @pytest.mark.parametrize(
        "ids",
        [
            [0, 1, 10**12 - 1],
            # Longer than one chunk, ending mid-chunk, every digit group moving.
            [(i * 7_919_737_117) % 10**12 for i in range(2 * _NAME_CHUNK + 37)],
            [5, 10**12, 10**12 + 3],  # past twelve digits: the ``%`` fallback
            [],
        ],
        ids=["ends", "chunks", "fallback", "empty"],
    )
    def test_names_are_the_format_of_the_ids(self, ids):
        names = batch_of(ids).key_names()
        assert names == [_KEY_NAME_FORMAT % i for i in ids]
        assert all(type(name) is str for name in names)

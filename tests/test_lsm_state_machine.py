"""Model-based test of the LSM engine: every read path against a dict.

A hypothesis state machine drives one small engine through point
writes, deletes and reads, mixed :meth:`~LSMEngine.execute_batch`
blocks, forced flushes, background drains and online reconfigurations
(compaction method, file cache, bloom false-positive chance).  A plain
``dict`` is the model: a live key maps to its bytes (``b""`` included),
a deleted one to ``None``.  After every step, each key the model has
touched reads back through :meth:`~LSMEngine.get` as the dict says.

Keys come from an alphabet with NUL and non-ASCII characters, so the
NUL-holding keys that a batch probe plan cannot hold in a numpy array
and multi-byte keys whose order differs from their UTF-8 lengths meet
flushes and compactions too.  The knobs are tiny, so a few dozen writes
flush the memtable and a few flushes start a compaction.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.lsm.engine import OP_DELETE, OP_READ, OP_WRITE, LSMEngine

from tests.conftest import KB, make_knobs

KEYS = st.text(alphabet="ab\x00é日", min_size=1, max_size=3)
VALUES = st.binary(max_size=24)


class EngineMatchesDict(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = LSMEngine(
            make_knobs(
                memtable_space_bytes=2 * KB,
                sstable_target_bytes=512,
                commitlog_segment_bytes=KB,
                commitlog_sync_period_s=0.001,
            )
        )
        self.model = {}

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.engine.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.engine.delete(key)
        self.model[key] = None

    @rule(key=KEYS)
    def get(self, key):
        assert self.engine.get(key) == self.model.get(key)

    @rule(
        ops=st.lists(
            st.tuples(
                st.sampled_from((OP_READ, OP_WRITE, OP_DELETE)),
                KEYS,
                st.integers(0, 24),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def execute_batch(self, ops):
        kinds, keys, sizes = zip(*ops)
        self.engine.execute_batch(np.array(kinds), list(keys), np.array(sizes))
        for kind, key, size in ops:
            if kind == OP_WRITE:
                self.model[key] = bytes(size)  # a block writes zero-filled payloads
            elif kind == OP_DELETE:
                self.model[key] = None

    @rule()
    def flush(self):
        self.engine.flush()

    @rule()
    def idle_until_compact(self):
        self.engine.idle_until_compact()
        assert self.engine.compaction_backlog_bytes == 0

    @rule(
        leveled=st.booleans(),
        cache=st.sampled_from((0, 4 * KB, 256 * KB)),
        fp=st.sampled_from((0.001, 0.1, 0.5)),
    )
    def reconfigure(self, leveled, cache, fp):
        self.engine.reconfigure(
            replace(
                self.engine.knobs,
                compaction_method=LEVELED if leveled else SIZE_TIERED,
                file_cache_bytes=cache,
                bloom_fp_chance=fp,
            )
        )

    @invariant()
    def touched_keys_read_as_the_dict(self):
        for key, value in self.model.items():
            assert self.engine.get(key) == value, key


EngineMatchesDict.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineMatchesDict = EngineMatchesDict.TestCase

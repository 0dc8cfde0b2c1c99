"""Operation-stream generation.

Turns a :class:`~repro.workload.spec.WorkloadSpec` into concrete blocks
of read/write/delete operations with keys drawn from a KRD-faithful
distribution — the per-operation analogue of what the analytic
benchmark path computes in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

import numpy as np

from repro.lsm.engine import OP_DELETE, OP_READ, OP_WRITE
from repro.workload.keydist import _KEY_NAME_FORMAT, ExponentialReuseKeyDistribution
from repro.workload.spec import WorkloadSpec

#: Row of :func:`_code_groups` that holds ``_KEY_NAME_FORMAT``'s prefix.
_PREFIX_ROW = 10_000


@lru_cache(maxsize=None)
def _code_groups() -> np.ndarray:
    """``_KEY_NAME_FORMAT`` (``"user%012d"``) as sixteen code points in
    four groups of four: row ``g`` is ``"%04d" % g`` and row
    ``_PREFIX_ROW`` the prefix ``"user"``.  Built on first use."""
    groups = np.empty((_PREFIX_ROW + 1, 4), dtype=np.uint32)
    for column, place in enumerate((1000, 100, 10, 1)):
        groups[:_PREFIX_ROW, column] = np.arange(_PREFIX_ROW, dtype=np.uint32) // place % 10 + 48
    groups[_PREFIX_ROW] = [ord(c) for c in _KEY_NAME_FORMAT.partition("%")[0]]
    return groups


#: Rows per step when key names are built as a column.
_NAME_CHUNK = 1024


@dataclass
class OperationBatch:
    """A block of operations as parallel numpy columns.

    Op kinds as :data:`~repro.lsm.engine.OP_READ`-family codes (they
    live in :mod:`repro.lsm.engine` because the import DAG runs
    lsm -> workload), key *ids* (names are materialized lazily), and
    write payload sizes.  Feed it to
    :meth:`~repro.lsm.engine.LSMEngine.execute_batch`, which writes
    zero-filled payloads: value *content* never influences stats,
    simulated time, or cache behaviour (only ``len(value)`` does).
    """

    kinds: np.ndarray  # int8 OP_* codes, one per op
    key_ids: np.ndarray  # int64 key ids
    value_sizes: np.ndarray  # int64 payload bytes (0 for non-writes)
    _names: Optional[List[str]] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.kinds)

    def key_names(self) -> List[str]:
        """Per-op key names (cached after first materialization).

        Each is ``_KEY_NAME_FORMAT % id``, built as a ``<U16`` column —
        per row the prefix and three four-digit groups taken from
        :func:`_code_groups`, a chunk of rows at a time so the
        temporaries stay small — and taken out as ``str``; an id outside
        ``[0, 10**12)`` falls back to ``%``.
        """
        if self._names is None:
            ids = self.key_ids
            if len(ids) and (ids.min() < 0 or ids.max() >= 10**12):
                self._names = [_KEY_NAME_FORMAT % k for k in ids.tolist()]
                return self._names
            names: List[str] = []
            rows = np.empty((min(len(ids), _NAME_CHUNK), 4), dtype=np.int64)
            rows[:, 0] = _PREFIX_ROW
            for a in range(0, len(ids), _NAME_CHUNK):
                chunk = ids[a : a + _NAME_CHUNK]
                groups = rows[: len(chunk)]
                groups[:, 1], low = np.divmod(chunk, 10**8)
                groups[:, 2], groups[:, 3] = np.divmod(low, 10**4)
                codes = _code_groups().take(groups, axis=0).reshape(len(chunk), 16)
                names += codes.view("U16").ravel().tolist()
            self._names = names
        return self._names


class OperationGenerator:
    """Draws an operation stream, block by block, matching a workload spec.

    Writes split between updates of existing keys (``update_fraction``)
    and inserts of fresh keys; reads follow the KRD distribution.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        rng: np.random.Generator,
        loaded_keys: int = 0,
    ):
        self.spec = spec
        self.rng = rng
        self.key_dist = ExponentialReuseKeyDistribution(
            n_keys=spec.n_keys,
            mean_reuse_distance=spec.krd_mean_ops,
        )
        # Insert cursor: fresh keys get ids past the loaded range.
        self._next_insert_id = loaded_keys

    def load_batch(self, count: int) -> OperationBatch:
        """The YCSB load phase: ``count`` sequential fresh inserts."""
        if count < 0:
            raise ValueError("count must be non-negative")
        key_ids = self._next_insert_id + np.arange(count, dtype=np.int64)
        self._next_insert_id += count
        return OperationBatch(
            kinds=np.full(count, OP_WRITE, dtype=np.int8),
            key_ids=key_ids,
            value_sizes=np.full(count, self.spec.value_bytes, dtype=np.int64),
        )

    def operation_batch(self, n: int, read_ratio: Optional[float] = None) -> OperationBatch:
        """Draw ``n`` run-phase operations as one vectorized block.

        A kind coin splits reads / deletes / writes, an update coin
        splits writes into updates of existing keys and inserts that
        advance the insert cursor, and existing-key draws map modulo
        the keys populated before the op.  Columns are drawn one after
        another (all kind coins, then all update coins, then all key
        ids).  ``read_ratio`` overrides the spec's ratio for this block
        under the spec's own checks: ``WorkloadError`` outside ``[0, 1]``,
        on NaN, or when it leaves less than ``delete_fraction`` for writes.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        spec = self.spec if read_ratio is None else self.spec.with_read_ratio(float(read_ratio))
        rr, df = spec.read_ratio, spec.delete_fraction
        u = self.rng.random(n)
        v = self.rng.random(n)

        kinds = np.full(n, OP_WRITE, dtype=np.int8)
        kinds[u < rr + df] = OP_DELETE
        kinds[u < rr] = OP_READ
        write_mask = kinds == OP_WRITE
        insert_mask = write_mask & (v >= self.spec.update_fraction)
        existing_mask = ~insert_mask

        # The insert cursor advances as the block is consumed: op i maps
        # existing-key draws modulo the keys populated *before* it.
        inserts_before = np.cumsum(insert_mask) - insert_mask
        populated = np.maximum(self._next_insert_id + inserts_before, 1)

        key_ids = np.empty(n, dtype=np.int64)
        n_existing = int(existing_mask.sum())
        raw = self.key_dist.next_keys(self.rng, n_existing)
        key_ids[existing_mask] = raw % populated[existing_mask]
        key_ids[insert_mask] = self._next_insert_id + inserts_before[insert_mask]
        self._next_insert_id += int(insert_mask.sum())

        value_sizes = np.where(write_mask, self.spec.value_bytes, 0).astype(np.int64)
        return OperationBatch(kinds=kinds, key_ids=key_ids, value_sizes=value_sizes)

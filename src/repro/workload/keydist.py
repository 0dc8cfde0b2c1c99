"""Key selection: the paper's key-reuse process.

The paper characterizes MG-RAST key access by its Key Reuse Distance
(KRD): "the number of queries that pass before the same key is
re-accessed" (§3.3), summarized by a fitted exponential distribution.
:class:`ExponentialReuseKeyDistribution` generates exactly that process.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError


#: A key id's stable, sortable string form (zero-padded, YCSB-style).
_KEY_NAME_FORMAT = "user%012d"


class ExponentialReuseKeyDistribution:
    """Key stream with exponentially distributed reuse distances.

    With probability ``reuse_probability`` the next access re-uses a key
    seen ``d`` operations ago, where ``d ~ Exp(mean_reuse_distance)``;
    otherwise it touches a uniformly random (likely cold) key.  A bounded
    history window keeps memory flat — the paper faces the same bound
    when computing KRD from production logs (§3.3).
    """

    def __init__(
        self,
        n_keys: int,
        mean_reuse_distance: float,
        reuse_probability: float = 0.8,
        history_limit: int = 2_000_000,
    ):
        if n_keys <= 0:
            raise WorkloadError("n_keys must be positive")
        if mean_reuse_distance <= 0:
            raise WorkloadError("mean_reuse_distance must be positive")
        if not (0.0 <= reuse_probability <= 1.0):
            raise WorkloadError("reuse_probability outside [0, 1]")
        self.n_keys = n_keys
        self.mean_reuse_distance = float(mean_reuse_distance)
        self.reuse_probability = reuse_probability
        self.history_limit = history_limit
        # The window: the last ``_held`` keys in an int64 buffer grown by
        # doubling (never allocated at ``history_limit`` up front), a ring
        # from ``_oldest`` once it holds ``history_limit`` of them.
        self._history = np.empty(min(history_limit, 1024), dtype=np.int64)
        self._held = 0
        self._oldest = 0
        self._seen: Optional[dict] = {}  # see _last_seen
        self._count = 0

    def _reserve(self, n: int) -> None:
        """Room for ``n`` more keys, within ``history_limit``."""
        size = len(self._history)
        if self._held + n > size:
            while size < self._held + n:
                size *= 2
            grown = np.empty(min(size, self.history_limit), dtype=np.int64)
            grown[: self._held] = self._history[: self._held]
            self._history = grown

    @property
    def _last_seen(self) -> dict:
        """Each key in the window -> the stream position it was last
        drawn at.  Only :meth:`next_key` reads it, so :meth:`next_keys`
        leaves it to be rebuilt from the window here, on the next read."""
        if self._seen is None:
            held, oldest, history = self._held, self._oldest, self._history
            window = np.concatenate((history[oldest:held], history[:oldest])).tolist()
            self._seen = dict(zip(window, range(self._count - held, self._count)))
        return self._seen

    def key_name(self, key_id: int) -> str:
        """``key_id`` under :data:`_KEY_NAME_FORMAT`."""
        return _KEY_NAME_FORMAT % key_id

    def next_key(self, rng: np.random.Generator) -> int:
        """Return the integer id of the next key to access."""
        key = -1
        held, history, last_seen = self._held, self._history, self._seen
        if last_seen is None:  # a batch draw left it to be rebuilt
            last_seen = self._last_seen
        if held and rng.random() < self.reuse_probability:
            # Draw a target distance; retry a couple of times if the
            # slot's key was re-accessed more recently (which would
            # realize a much shorter distance and bias the KRD low).
            for _ in range(3):
                distance = int(rng.exponential(self.mean_reuse_distance))
                if distance >= held:
                    break
                candidate = int(history[(self._oldest + held - 1 - distance) % len(history)])
                realized = self._count - last_seen.get(candidate, self._count) - 1
                if realized >= distance // 2:
                    key = candidate
                    break
        if key < 0:
            # Reuse distance beyond the observable window (or a cold
            # start): touch a uniformly random — likely cold — key.
            key = int(rng.integers(self.n_keys))
        if held == self.history_limit:
            # The oldest key falls out of the window, its bookkeeping
            # with it, and the new key takes its slot.
            slot = self._oldest
            oldest = int(history[slot])
            if last_seen.get(oldest, -1) <= self._count - self.history_limit:
                last_seen.pop(oldest, None)
            self._oldest = (slot + 1) % held
        else:
            if held == len(history):
                self._reserve(1)
            slot = held
            self._held += 1
        self._history[slot] = key
        last_seen[key] = self._count
        self._count += 1
        return key

    def next_keys(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Vectorized reuse-distance sampling.

        One reuse coin, one exponential distance, and one cold key are
        drawn per op up front; in-batch reuse targets (an op whose
        distance lands on an *earlier op of the same batch*) are resolved
        by pointer-halving, so the realized reuse-distance process is the
        same as the scalar sampler's.  This is the batch path's own
        deterministic sampler, not a replay of :meth:`next_key` — the
        scalar sampler's RNG consumption is data-dependent (its re-access
        retry loop redraws up to three times), which no fixed-shape batch
        draw can reproduce; the retry heuristic is dropped here, slightly
        thickening the short-distance tail.  Both paths remain seed-
        deterministic, and batched runs are reproducible run-to-run.
        """
        if n < 0:
            raise WorkloadError("batch size must be non-negative")
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        h = self._held
        if h + n > self.history_limit:
            # Eviction bookkeeping would trigger mid-batch; keep that
            # rare regime on the scalar path.
            return np.array([self.next_key(rng) for _ in range(n)], dtype=np.int64)

        reuse_coin = rng.random(n)
        distance = rng.exponential(self.mean_reuse_distance, size=n).astype(np.int64)
        cold = rng.integers(self.n_keys, size=n).astype(np.int64)

        idx = np.arange(n, dtype=np.int64)
        # Op i sees an effective history of h + i entries; a distance at
        # or beyond that window falls back to a cold key, as in the
        # scalar sampler.
        window = h + idx
        reuse = (reuse_coin < self.reuse_probability) & (distance < window) & (window > 0)
        # Position of the reused entry on the combined stream
        # [history[0..h-1], batch[0..n-1]]:
        target = window - 1 - distance

        keys = cold.copy()
        hist_hit = reuse & (target < h)
        # Below the limit the buffer is in order from slot 0.
        keys[hist_hit] = self._history[target[hist_hit]]
        # In-batch references always point strictly backward, so
        # repeated pointer-halving terminates with every chain rooted at
        # a cold or history-sourced op.
        parent = np.where(reuse & (target >= h), target - h, idx)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        keys = keys[parent]

        self._reserve(n)
        self._history[h : h + n] = keys
        self._held += n
        self._seen = None
        self._count += n
        return keys

"""Workload forecasting (the paper's future work, §6).

"We are also developing a prediction model for the workloads" — the
point being that if the next window's read ratio can be predicted, the
controller can reconfigure *proactively* at the window boundary instead
of reacting one window late.

:class:`MarkovRegimeForecaster` quantizes RR into regime bins and learns
the window-to-window transition matrix online; it suits MG-RAST's
regime-switching structure (Figure 3), where "same regime" is likely but
switches have learnable destinations.  It is online: ``update()`` with
each observed window, ``predict()`` for the next.  It never sees the
future.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError


class MarkovRegimeForecaster:
    """First-order Markov chain over quantized RR regimes.

    RR is binned into ``n_bins`` regimes; transition counts are learned
    online with Laplace smoothing.  The prediction is the expected RR of
    the next regime: ``sum_j P(j | current) * center_j`` — which decays
    toward the regime's continuation when the chain is confident and
    toward the global mix when it is not.
    """

    def __init__(self, n_bins: int = 5, smoothing: float = 1.0):
        if n_bins < 2:
            raise WorkloadError("need at least two regime bins")
        if smoothing <= 0:
            raise WorkloadError("smoothing must be positive")
        self.n_bins = n_bins
        self.smoothing = smoothing
        self._transitions = np.full((n_bins, n_bins), smoothing, dtype=float)
        self._bin_sums = np.zeros(n_bins)     # running mean RR per bin
        self._bin_counts = np.zeros(n_bins)
        self._current_bin: Optional[int] = None
        self._prediction: Optional[float] = None  # predict()'s, until update()

    def _bin_of(self, rr: float) -> int:
        return min(int(rr * self.n_bins), self.n_bins - 1)

    def _bin_center(self, b: int) -> float:
        if self._bin_counts[b] > 0:
            return float(self._bin_sums[b] / self._bin_counts[b])
        return (b + 0.5) / self.n_bins

    def update(self, read_ratio: float) -> None:
        """Feed the just-observed window's RR."""
        if not (0.0 <= read_ratio <= 1.0):
            raise WorkloadError(f"read ratio {read_ratio} outside [0, 1]")
        rr = float(read_ratio)
        new_bin = self._bin_of(rr)
        self._bin_sums[new_bin] += rr
        self._bin_counts[new_bin] += 1
        if self._current_bin is not None:
            self._transitions[self._current_bin, new_bin] += 1.0
        self._current_bin = new_bin
        self._prediction = None

    def predict(self) -> float:
        """Predict the next window's RR (in [0, 1]).  Computed once per
        ``update``: a window's decision and its search hint both ask."""
        if self._current_bin is None:
            return 0.5
        if self._prediction is None:
            row = self._transitions[self._current_bin]
            probs = row / row.sum()
            centers = np.array([self._bin_center(b) for b in range(self.n_bins)])
            self._prediction = float(np.clip(probs @ centers, 0.0, 1.0))
        return self._prediction

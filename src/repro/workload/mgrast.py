"""Synthetic MG-RAST workload traces.

The paper drives Rafiki with a 4-day query trace from Argonne's MG-RAST
metagenomics portal (production data we cannot ship).  This generator
reproduces the three properties the paper actually consumes:

* **Regime-switching read ratios** (Figure 3): extended read-heavy,
  write-heavy, and mixed periods whose transitions are abrupt and often
  last 15 minutes or less, driven by the pipeline stages — user
  submissions (bursty writes), gene-prediction / RNA-detection passes
  (mixed), and analysis/retrieval phases (read-heavy).
* **Very large key-reuse distance** (§1, §3.3): accesses rarely revisit
  keys soon, "putting immense pressure on the disk, while relieving
  pressure on caches"; stationary over the full trace.
* **Query mix realism**: inserts of derived products ~10x the submitted
  data (§2.4), i.e. a meaningful update/insert write mix.

The regimes form a semi-Markov chain with heavy-tailed dwell times, so a
handful of windows can flip RR from ~0.9 to ~0.1 within one 15-minute
window — the dynamism that breaks slow online tuners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.sim.rng import SeedLike, derive_rng
from repro.workload.keydist import ExponentialReuseKeyDistribution
from repro.workload.spec import READ, WRITE
from repro.workload.trace import DEFAULT_WINDOW_SECONDS, QueryRecord, Trace


@dataclass(frozen=True)
class MGRastPhase:
    """One pipeline regime: an RR level with dwell-time statistics."""

    name: str
    mean_read_ratio: float
    rr_jitter: float           # within-regime window-to-window wobble
    mean_dwell_windows: float  # geometric dwell time, in windows
    weight: float              # stationary selection weight


#: Regimes mirroring Figure 3's qualitative pattern: mostly read-heavy
#: analysis with bursty write (submission) interludes and mixed
#: transformation phases.
DEFAULT_PHASES: Sequence[MGRastPhase] = (
    MGRastPhase("analysis-read-heavy", 0.88, 0.06, 10.0, 0.45),
    MGRastPhase("submission-write-burst", 0.08, 0.05, 2.0, 0.15),
    MGRastPhase("pipeline-mixed", 0.50, 0.12, 4.0, 0.25),
    MGRastPhase("annotation-moderate-read", 0.70, 0.08, 5.0, 0.15),
)

#: The paper's observation period.
FOUR_DAYS_SECONDS = 4 * 24 * 3600


class MGRastTraceGenerator:
    """Seeded generator of MG-RAST-like workload traces."""

    def __init__(
        self,
        phases: Sequence[MGRastPhase] = DEFAULT_PHASES,
        n_keys: int = 2_000_000,
        krd_mean_ops: float = 200_000.0,
        queries_per_window: int = 3_000,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        seed: SeedLike = 0,
    ):
        if not phases:
            raise ValueError("need at least one phase")
        self.phases = list(phases)
        self.n_keys = n_keys
        self.krd_mean_ops = krd_mean_ops
        self.queries_per_window = queries_per_window
        self.window_seconds = window_seconds
        self.rng = derive_rng(seed)
        weights = np.array([p.weight for p in self.phases], dtype=float)
        self._phase_probs = weights / weights.sum()

    # ------------------------------------------------------------------ RR series

    def read_ratio_series(self, duration_seconds: float = FOUR_DAYS_SECONDS) -> np.ndarray:
        """Per-window read ratios over ``duration_seconds`` (Figure 3)."""
        n_windows = max(1, int(duration_seconds // self.window_seconds))
        series = np.empty(n_windows)
        i = 0
        while i < n_windows:
            phase = self._pick_phase()
            dwell = 1 + self.rng.geometric(1.0 / phase.mean_dwell_windows)
            for _ in range(min(dwell, n_windows - i)):
                rr = phase.mean_read_ratio + phase.rr_jitter * self.rng.standard_normal()
                series[i] = float(np.clip(rr, 0.0, 1.0))
                i += 1
                if i >= n_windows:
                    break
        return series

    def _pick_phase(self) -> MGRastPhase:
        idx = int(self.rng.choice(len(self.phases), p=self._phase_probs))
        return self.phases[idx]

    # ------------------------------------------------------------------ full trace

    def generate(self, duration_seconds: float = FOUR_DAYS_SECONDS) -> Trace:
        """A full query trace: timestamped reads/writes with KRD-faithful
        key selection, per-window rates from the regime model."""
        rr_series = self.read_ratio_series(duration_seconds)
        key_dist = ExponentialReuseKeyDistribution(
            n_keys=self.n_keys,
            mean_reuse_distance=self.krd_mean_ops,
            history_limit=min(int(4 * self.krd_mean_ops), 2_000_000),
        )
        records: List[QueryRecord] = []
        for w, rr in enumerate(rr_series):
            t0 = w * self.window_seconds
            count = self.queries_per_window
            # Poisson-ish arrival spread inside the window, kept sorted.
            offsets = np.sort(self.rng.random(count)) * self.window_seconds
            kinds = np.where(self.rng.random(count) < rr, READ, WRITE)
            for dt, kind in zip(offsets, kinds):
                key_id = key_dist.next_key(self.rng)
                records.append(
                    QueryRecord(
                        timestamp=t0 + float(dt),
                        kind=str(kind),
                        key=key_dist.key_name(key_id),
                    )
                )
        return Trace(records)

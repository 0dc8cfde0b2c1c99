"""Workload characterization (paper §3.3, step 1 of the Rafiki workflow).

From a raw query trace, extract the two statistics Rafiki uses:

* **Read Ratio (RR)** per window — the time window must be such that RR
  is (approximately) stationary within it; the paper finds 15 minutes
  for MG-RAST.
* **Key Reuse Distance (KRD)** — fit an exponential distribution over
  the observed reuse distances of the whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import WorkloadError
from repro.workload.trace import DEFAULT_WINDOW_SECONDS, Trace


@dataclass(frozen=True)
class WorkloadCharacterization:
    """The paper's two workload features plus window bookkeeping."""

    window_seconds: float
    read_ratios: Tuple[float, ...]       # RR per window
    krd_mean_ops: float                  # exponential fit scale
    krd_samples: int                     # reuse observations used
    overall_read_ratio: float

    @property
    def n_windows(self) -> int:
        return len(self.read_ratios)


def read_ratio_windows(
    trace: Trace, window_seconds: float = DEFAULT_WINDOW_SECONDS
) -> List[float]:
    """RR per fixed window; empty windows carry the previous value
    forward (a quiet quarter-hour does not change the regime)."""
    ratios: List[float] = []
    previous = 0.5
    for _, records in trace.windows(window_seconds):
        if records:
            reads = sum(1 for r in records if r.kind == "read")
            previous = reads / len(records)
        ratios.append(previous)
    return ratios


def fit_exponential_krd(trace: Trace, max_records: int = 0) -> Tuple[float, int]:
    """MLE exponential fit of the key-reuse-distance distribution.

    For Exp(scale), the MLE of the scale is the sample mean.  Returns
    ``(scale, n_samples)``; raises if the trace has no key reuse at all.
    """
    distances = trace.key_reuse_distances(max_records=max_records)
    if distances.size == 0:
        raise WorkloadError("trace exhibits no key reuse; cannot fit KRD")
    return float(distances.mean()), int(distances.size)


def characterize_trace(
    trace: Trace,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    max_krd_records: int = 0,
) -> WorkloadCharacterization:
    """Run the full §3.3 characterization over a trace."""
    if len(trace) == 0:
        raise WorkloadError("cannot characterize an empty trace")
    ratios = read_ratio_windows(trace, window_seconds)
    krd_scale, n_samples = fit_exponential_krd(trace, max_records=max_krd_records)
    return WorkloadCharacterization(
        window_seconds=window_seconds,
        read_ratios=tuple(ratios),
        krd_mean_ops=krd_scale,
        krd_samples=n_samples,
        overall_read_ratio=trace.read_ratio(),
    )

"""Query traces: timestamped logs of database operations.

The paper's raw input is a 4-day MG-RAST query log; this module is its
in-memory representation plus windowing helpers used by the workload
characterizer (§3.3) and the online controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.spec import READ

#: The paper's characterization window: 15 minutes (§3.3, Figure 3).
DEFAULT_WINDOW_SECONDS = 15 * 60


@dataclass(frozen=True)
class QueryRecord:
    """One logged query: arrival time, kind, and key."""

    timestamp: float
    kind: str  # READ | WRITE | DELETE
    key: str


class Trace:
    """A time-ordered sequence of :class:`QueryRecord`."""

    def __init__(self, records: Sequence[QueryRecord]):
        self._records: List[QueryRecord] = list(records)
        for a, b in zip(self._records, self._records[1:]):
            if b.timestamp < a.timestamp:
                raise WorkloadError("trace records must be time-ordered")

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[QueryRecord]:
        return iter(self._records)

    def __getitem__(self, i):
        return self._records[i]

    @property
    def duration(self) -> float:
        if not self._records:
            return 0.0
        return self._records[-1].timestamp - self._records[0].timestamp

    @property
    def start_time(self) -> float:
        return self._records[0].timestamp if self._records else 0.0

    def windows(
        self, window_seconds: float = DEFAULT_WINDOW_SECONDS
    ) -> Iterator[Tuple[float, List[QueryRecord]]]:
        """Yield (window_start, records) over fixed-width time windows.

        Empty trailing windows are not emitted; empty interior windows
        are (a production system can go quiet for a window).
        """
        if window_seconds <= 0:
            raise WorkloadError("window_seconds must be positive")
        if not self._records:
            return
        t0 = self.start_time
        bucket: List[QueryRecord] = []
        current = 0
        for rec in self._records:
            idx = int((rec.timestamp - t0) // window_seconds)
            while idx > current:
                yield (t0 + current * window_seconds, bucket)
                bucket = []
                current += 1
            bucket.append(rec)
        yield (t0 + current * window_seconds, bucket)

    def read_ratio(self) -> float:
        """Overall RR of the trace (reads / all queries)."""
        if not self._records:
            raise WorkloadError("empty trace has no read ratio")
        reads = sum(1 for r in self._records if r.kind == READ)
        return reads / len(self._records)

    def key_reuse_distances(self, max_records: int = 0) -> np.ndarray:
        """Observed KRDs: queries between successive accesses to a key.

        ``max_records`` bounds the scan (0 = all), mirroring the paper's
        note that operationally the KRD window must be bounded (§3.3).
        """
        records = self._records[:max_records] if max_records else self._records
        last_seen = {}
        distances: List[int] = []
        for i, rec in enumerate(records):
            prev = last_seen.get(rec.key)
            if prev is not None:
                distances.append(i - prev - 1)
            last_seen[rec.key] = i
        return np.asarray(distances, dtype=float)

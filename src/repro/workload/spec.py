"""Workload specifications.

A :class:`WorkloadSpec` is the benchmark-facing description of a
workload: the read ratio (the paper's single workload feature for the
surrogate model), the key-reuse-distance scale, payload sizes, and the
dataset size.  It converts directly to the engine-facing
:class:`~repro.lsm.analytic.WorkloadProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import WorkloadError
from repro.lsm.analytic import WorkloadProfile

READ = "read"
WRITE = "write"
DELETE = "delete"


@dataclass(frozen=True)
class WorkloadSpec:
    """Parametrized workload for the YCSB-style harness.

    Attributes mirror the paper's characterization (§3.3): ``read_ratio``
    (RR) is the surrogate-model feature; ``krd_mean_ops`` is the fitted
    exponential KRD scale (held stationary for MG-RAST and therefore used
    to *configure* data collection, not as a model input).
    """

    read_ratio: float
    n_keys: int = 30_000_000
    value_bytes: int = 200
    key_bytes: int = 16
    update_fraction: float = 0.3
    krd_mean_ops: float = 200_000.0
    delete_fraction: float = 0.0
    name: str = ""

    def __post_init__(self):
        if not (0.0 <= self.read_ratio <= 1.0):
            raise WorkloadError(f"read_ratio {self.read_ratio} outside [0, 1]")
        if not (0.0 <= self.update_fraction <= 1.0):
            raise WorkloadError("update_fraction outside [0, 1]")
        if not (0.0 <= self.delete_fraction <= 1.0):
            raise WorkloadError("delete_fraction outside [0, 1]")
        if self.delete_fraction > 1.0 - self.read_ratio:
            raise WorkloadError("delete_fraction cannot exceed the write share")
        if self.n_keys <= 0:
            raise WorkloadError("n_keys must be positive")
        if self.value_bytes < 0 or self.key_bytes <= 0:
            raise WorkloadError("payload sizes must be positive")
        if self.krd_mean_ops <= 0:
            raise WorkloadError("krd_mean_ops must be positive")

    @property
    def label(self) -> str:
        return self.name or f"RR={self.read_ratio:.0%}"

    def with_read_ratio(self, read_ratio: float) -> "WorkloadSpec":
        return replace(self, read_ratio=read_ratio, name="")

    def to_profile(self) -> WorkloadProfile:
        """Engine-facing view of the per-op cost characteristics."""
        return WorkloadProfile(
            value_bytes=self.value_bytes,
            key_bytes=self.key_bytes,
            update_fraction=self.update_fraction,
            krd_mean_ops=self.krd_mean_ops,
        )


def mgrast_workload(read_ratio: float, name: str = "") -> WorkloadSpec:
    """An MG-RAST-shaped workload at a given read ratio.

    Large key-reuse distance (disk pressure, weak caching) and a
    meaningful update share from pipeline re-insertions (paper §2.4.2).
    """
    return WorkloadSpec(
        read_ratio=read_ratio,
        n_keys=30_000_000,
        value_bytes=200,
        update_fraction=0.3,
        krd_mean_ops=200_000.0,
        name=name or f"mgrast-rr{int(round(read_ratio * 100))}",
    )

"""Workload modelling: specs, key selection, traces, characterization.

Implements the paper's workload layer (§2.4, §3.3): MG-RAST-style
dynamic query streams, the two characterization statistics Rafiki uses —
Read Ratio (RR) per 15-minute window and Key Reuse Distance (KRD, fit
with an exponential distribution) — and generators to drive benchmarks.
"""

from repro.workload.spec import WorkloadSpec, READ, WRITE, DELETE
from repro.workload.keydist import ExponentialReuseKeyDistribution
from repro.workload.generator import OperationGenerator
from repro.workload.trace import QueryRecord, Trace
from repro.workload.mgrast import MGRastTraceGenerator, MGRastPhase
from repro.workload.characterize import (
    WorkloadCharacterization,
    characterize_trace,
    fit_exponential_krd,
    read_ratio_windows,
)
from repro.workload.forecast import MarkovRegimeForecaster

__all__ = [
    "WorkloadSpec",
    "READ",
    "WRITE",
    "DELETE",
    "ExponentialReuseKeyDistribution",
    "OperationGenerator",
    "QueryRecord",
    "Trace",
    "MGRastTraceGenerator",
    "MGRastPhase",
    "WorkloadCharacterization",
    "characterize_trace",
    "fit_exponential_krd",
    "read_ratio_windows",
    "MarkovRegimeForecaster",
]

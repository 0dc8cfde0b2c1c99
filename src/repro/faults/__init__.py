"""Deterministic fault injection (the robustness subsystem).

The paper tunes a *live* datastore, and flags reconfiguration disruption
as the open risk (§4.8); this package supplies the weather for testing
that story: seeded :class:`FaultPlan` schedules (node crash/recover,
disk slowdowns, silent push failures, stale rejoins, transient
search/push failures) executed by a :class:`FaultInjector` against the
throughput cluster and the online controller.  With no
plan — or an empty one — every injection point is inert and the
pipeline is bit-identical to a fault-free build.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ActuationFault,
    DiskSlowdown,
    FaultPlan,
    NodeCrash,
    StaleRecovery,
    TransientFault,
)

__all__ = [
    "ActuationFault",
    "DiskSlowdown",
    "FaultInjector",
    "FaultPlan",
    "NodeCrash",
    "StaleRecovery",
    "TransientFault",
]

"""Drive an LSM engine through an op stream with scheduled kills.

The fidelity gap this closes: the engine has always *paid* for its
commit log (sync barriers, segment accounting) without ever exercising
the recovery path the log exists for.  This module is the harness that
does — apply a workload, kill the process at the
:class:`~repro.faults.plan.CrashPoint`\\ s of a fault plan, run
commitlog replay + SSTable scrub, keep going, and check at the end that
the survivor serves exactly what an uninterrupted engine would.

Ops are plain tuples so tests and hypothesis strategies can build them
directly: ``("put", key, value)``, ``("delete", key)``, ``("get", key)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.lsm.engine import LSMEngine, RecoveryReport

Op = Tuple  # ("put", key, value) | ("delete", key) | ("get", key)


@dataclass
class CrashSimReport:
    """Outcome of one crash-injected run."""

    applied_ops: int = 0
    crashes: int = 0
    get_results: List[Optional[bytes]] = field(default_factory=list)
    recoveries: List[RecoveryReport] = field(default_factory=list)


def generate_ops(
    rng: np.random.Generator,
    n_ops: int,
    n_keys: int = 40,
    value_bytes: int = 64,
    read_fraction: float = 0.3,
    delete_fraction: float = 0.1,
) -> List[Op]:
    """A deterministic mixed op stream for crash tests and tours."""
    ops: List[Op] = []
    for _ in range(n_ops):
        key = f"key-{int(rng.integers(n_keys)):06d}"
        draw = rng.random()
        if draw < read_fraction:
            ops.append(("get", key))
        elif draw < read_fraction + delete_fraction:
            ops.append(("delete", key))
        else:
            value = rng.integers(0, 256, size=value_bytes, dtype=np.uint8)
            ops.append(("put", key, value.tobytes()))
    return ops


def apply_op(engine: LSMEngine, op: Op) -> Optional[Optional[bytes]]:
    """Apply one op; returns the value for gets, ``None`` otherwise."""
    kind = op[0]
    if kind == "put":
        engine.put(op[1], op[2])
        return None
    if kind == "delete":
        engine.delete(op[1])
        return None
    if kind == "get":
        return engine.get(op[1])
    raise ValueError(f"unknown op kind {kind!r}")


def run_ops(
    engine: LSMEngine,
    ops: Iterable[Op],
    crash_plan: Optional[FaultPlan] = None,
) -> CrashSimReport:
    """Apply ``ops`` in order, killing + recovering at each crash point.

    A :class:`CrashPoint` at op index ``k`` strikes *before* the k-th op
    runs: the engine loses its volatile state, recovers through scrub +
    commitlog replay, and the stream continues on the rebuilt engine —
    the same sequence a restarted server sees.
    """
    crash_ops = (
        {p.op for p in crash_plan.crash_points} if crash_plan is not None else set()
    )
    report = CrashSimReport()
    for index, op in enumerate(ops):
        if index in crash_ops:
            engine.crash()
            report.recoveries.append(engine.recover())
            report.crashes += 1
        result = apply_op(engine, op)
        if op[0] == "get":
            report.get_results.append(result)
        report.applied_ops += 1
    return report


def state_snapshot(engine: LSMEngine, keys: Sequence[str]) -> Dict[str, Optional[bytes]]:
    """Visible value per key — the basis for crash-equivalence checks.

    Uses the uncharged probe path so snapshotting does not advance the
    simulated clock (comparisons should not perturb what they compare).
    """
    out: Dict[str, Optional[bytes]] = {}
    for key in keys:
        best, _, _, _, _ = engine._probe_newest(key)
        out[key] = None if best is None or best.is_tombstone else best.value
    return out


def states_equivalent(
    crashed: LSMEngine, reference: LSMEngine, keys: Sequence[str]
) -> bool:
    """Whether both engines serve identical values for every key."""
    return state_snapshot(crashed, keys) == state_snapshot(reference, keys)

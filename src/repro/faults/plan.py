"""Deterministic fault schedules.

A :class:`FaultPlan` is *data*: a frozen schedule of node crashes and
recoveries, disk slowdowns, silent push failures, stale rejoins and
transient control-plane failures, addressed by controller window index.
Plans are either written by hand (canned scenarios, CI smoke jobs) or
drawn from a seed with :meth:`FaultPlan.generate`; either way the same
plan replayed against the same seeded system produces the identical
event sequence, which is what makes fault runs auditable and
regressions bisectable.

The plan never *acts* — applying it to a live cluster/controller is the
:class:`~repro.faults.injector.FaultInjector`'s job.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from repro.errors import FaultError
from repro.sim.rng import SeedLike, derive_rng

#: Control-plane operations a :class:`TransientFault` can target.
TRANSIENT_KINDS = ("search", "push")

#: :meth:`FaultPlan.generate`'s per-window node-crash probability, the
#: longest outage or slowdown it draws (windows), and its worst slowdown.
_CRASH_PROBABILITY = 0.05
_MAX_OUTAGE_WINDOWS = 3
_MAX_SLOWDOWN_FACTOR = 4.0


@dataclass(frozen=True)
class NodeCrash:
    """A node goes down at ``window`` and (optionally) comes back."""

    window: int
    node: int
    recover_window: Optional[int] = None

    def validate(self) -> None:
        if self.window < 0 or self.node < 0:
            raise FaultError(f"node crash schedule must be non-negative: {self}")
        if self.recover_window is not None and self.recover_window <= self.window:
            raise FaultError(f"recovery must come after the crash: {self}")


@dataclass(frozen=True)
class DiskSlowdown:
    """A node's disk degrades by ``factor`` between two windows."""

    window: int
    node: int
    factor: float
    end_window: Optional[int] = None

    def validate(self) -> None:
        if self.window < 0 or self.node < 0:
            raise FaultError(f"slowdown schedule must be non-negative: {self}")
        if self.factor < 1.0:
            raise FaultError(f"slowdown factor must be >= 1, got {self.factor}")
        if self.end_window is not None and self.end_window <= self.window:
            raise FaultError(f"slowdown must end after it starts: {self}")


@dataclass(frozen=True)
class TransientFault:
    """A control-plane operation fails ``failures`` times at ``window``.

    ``kind`` is ``"search"`` (the surrogate search / recommendation) or
    ``"push"`` (applying a configuration to the server).  A retry budget
    larger than ``failures`` heals the fault; a smaller one drives the
    controller into degraded mode.
    """

    kind: str
    window: int
    failures: int = 1

    def validate(self) -> None:
        if self.kind not in TRANSIENT_KINDS:
            raise FaultError(f"unknown transient fault kind {self.kind!r}")
        if self.window < 0 or self.failures < 1:
            raise FaultError(f"transient fault schedule invalid: {self}")


@dataclass(frozen=True)
class ActuationFault:
    """A config push silently fails on one node at ``window``.

    The node stays up and keeps serving on its *old* configuration — a
    partial push.  ``repairs_blocked`` extends the refusal to that many
    subsequent re-pushes as well, so a plan can exercise the repair
    budget (0 means the first repair attempt succeeds).  Detection is
    the actuation layer's job (``verify_config`` read-back), which is
    the point: the failure itself is invisible at push time.
    """

    window: int
    node: int
    repairs_blocked: int = 0

    def validate(self) -> None:
        if self.window < 0 or self.node < 0:
            raise FaultError(f"actuation fault schedule must be non-negative: {self}")
        if self.repairs_blocked < 0:
            raise FaultError(
                f"repairs_blocked must be >= 0, got {self.repairs_blocked}"
            )


@dataclass(frozen=True)
class StaleRecovery:
    """A node crashes at ``window`` and rejoins on its pre-crash config.

    Unlike a plain :class:`NodeCrash`, config pushes issued while the
    node is down never reach it, so if the controller re-tunes during
    the outage the rejoining node serves stale knobs — the classic
    silent-drift source this PR's reconciler exists to catch.
    """

    window: int
    node: int
    recover_window: int

    def validate(self) -> None:
        if self.window < 0 or self.node < 0:
            raise FaultError(f"stale recovery schedule must be non-negative: {self}")
        if self.recover_window <= self.window:
            raise FaultError(f"recovery must come after the crash: {self}")


#: Every schedule field of a :class:`FaultPlan`, with its entry type, in
#: serialization order.
_ENTRY_TYPES = {
    "node_crashes": NodeCrash,
    "disk_slowdowns": DiskSlowdown,
    "transient_faults": TransientFault,
    "actuation_faults": ActuationFault,
    "stale_recoveries": StaleRecovery,
}


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule."""

    node_crashes: Tuple[NodeCrash, ...] = ()
    disk_slowdowns: Tuple[DiskSlowdown, ...] = ()
    transient_faults: Tuple[TransientFault, ...] = ()
    actuation_faults: Tuple[ActuationFault, ...] = ()
    stale_recoveries: Tuple[StaleRecovery, ...] = ()

    def __post_init__(self):
        # Tolerate lists in hand-written plans.
        for name in _ENTRY_TYPES:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def validate(self, n_nodes: Optional[int] = None) -> None:
        """Check schedule sanity; with ``n_nodes``, also node ranges."""
        for name in _ENTRY_TYPES:
            for item in getattr(self, name):
                item.validate()
        if n_nodes is not None:
            for item in self._node_faults():
                if item.node >= n_nodes:
                    raise FaultError(
                        f"fault targets node {item.node} but the cluster has "
                        f"{n_nodes} nodes"
                    )

    @property
    def is_empty(self) -> bool:
        return not any(getattr(self, name) for name in _ENTRY_TYPES)

    @property
    def max_node(self) -> int:
        """Highest node index any fault touches (-1 if none)."""
        return max((f.node for f in self._node_faults()), default=-1)

    def _node_faults(self) -> tuple:
        return (
            *self.node_crashes,
            *self.disk_slowdowns,
            *self.actuation_faults,
            *self.stale_recoveries,
        )

    # -- generation ----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: SeedLike,
        n_windows: int,
        n_nodes: int = 1,
        slowdown_probability: float = 0.05,
        search_fault_probability: float = 0.03,
        push_fault_probability: float = 0.03,
    ) -> "FaultPlan":
        """Draw a random-but-reproducible plan for an online run.

        Per window, each fault class fires independently with its
        probability; crashed nodes recover after 1..3 windows.  At most
        one node is scheduled down at a time so a plan can never strand
        the cluster below one live node, and a single node takes neither
        crashes nor slowdowns.  Actuation faults and stale
        recoveries are never drawn: a plan names them explicitly.
        """
        if n_windows < 1:
            raise FaultError("need at least one window")
        if n_nodes < 1:
            raise FaultError("need at least one node")
        rng = derive_rng(seed)
        crashes = []
        slowdowns = []
        transients = []
        down_until = -1  # last window of the currently scheduled outage
        for w in range(n_windows):
            if n_nodes > 1 and w > down_until and rng.random() < _CRASH_PROBABILITY:
                node = int(rng.integers(n_nodes))
                outage = int(rng.integers(1, _MAX_OUTAGE_WINDOWS + 1))
                recover = w + outage
                crashes.append(
                    NodeCrash(
                        window=w,
                        node=node,
                        recover_window=recover if recover < n_windows else None,
                    )
                )
                down_until = recover
            # A single server takes no slowdown; the uniform is drawn anyway,
            # so its plan equals one drawn at slowdown_probability=0.
            if rng.random() < slowdown_probability and n_nodes > 1:
                node = int(rng.integers(n_nodes))
                factor = float(1.5 + (_MAX_SLOWDOWN_FACTOR - 1.5) * rng.random())
                length = int(rng.integers(1, _MAX_OUTAGE_WINDOWS + 1))
                end = w + length
                slowdowns.append(
                    DiskSlowdown(
                        window=w,
                        node=node,
                        factor=factor,
                        end_window=end if end < n_windows else None,
                    )
                )
            if rng.random() < search_fault_probability:
                transients.append(
                    TransientFault(
                        kind="search", window=w, failures=int(rng.integers(1, 3))
                    )
                )
            if rng.random() < push_fault_probability:
                transients.append(
                    TransientFault(
                        kind="push", window=w, failures=int(rng.integers(1, 3))
                    )
                )
        return cls(
            node_crashes=tuple(crashes),
            disk_slowdowns=tuple(slowdowns),
            transient_faults=tuple(transients),
        )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            name: [asdict(entry) for entry in getattr(self, name)]
            for name in _ENTRY_TYPES
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultError(
                f"fault plan must be an object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(_ENTRY_TYPES))
        if unknown:
            raise FaultError(f"unknown fault plan keys: {unknown}")
        try:
            return cls(
                **{
                    name: tuple(kind(**entry) for entry in payload[name])
                    for name, kind in _ENTRY_TYPES.items()
                    if name in payload
                }
            )
        except TypeError as exc:
            raise FaultError(f"malformed fault plan: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

"""Multi-node peer-to-peer cluster (paper §4.9, Table 3).

Nodes are independent simulated servers joined in a Cassandra-style
ring.  Each logical write is applied to ``replication_factor`` replicas;
each logical read is served by one replica (consistency level ONE, the
throughput-oriented choice: metagenomics tolerates stale reads, §2.1).
Client capacity is bounded by the YCSB "shooters" — the paper adds a
shooter per server to keep the cluster loaded, so there is one per
node.

Nodes can be marked down (:meth:`Cluster.fail_node`) or given a degraded
disk (:meth:`Cluster.set_disk_slowdown`); throughput and capacity math
then run over the surviving nodes.  With every node live and no
slowdowns the math is bit-identical to the fault-free model.

**Verified actuation.**  Each node tracks the :class:`Configuration` it
is *actually running* (its applied config), separately from the ring's
*intended* config (:attr:`Cluster.config`).  Config pushes land per node
through :meth:`apply_node_config`, which can fail — a node armed with
push refusals (:meth:`refuse_pushes`, the ActuationFault mechanism) or
config-isolated while down (:meth:`isolate_node`, the StaleRecovery
mechanism) silently keeps its old knobs.  A mixed-config ring is thus a
modeled, measurable state: capacity math consumes each node's own knobs,
and :meth:`describe_drift` reports the intended-vs-applied fingerprint
delta so the middleware's reconcile loop can detect and repair it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.config.space import Configuration
from repro.datastore.base import Datastore
from repro.errors import ActuationError, DatastoreError
from repro.lsm.analytic import AnalyticLSMModel, WorkloadProfile, _node_seconds
from repro.lsm.knobs import EngineKnobs
from repro.sim.rng import SeedLike, SeedSequence, derive_rng

#: Operations/second one benchmark client ("shooter") can generate.
SHOOTER_CAPACITY_OPS = 130_000.0


@dataclass(frozen=True)
class DriftReport:
    """Intended-vs-applied configuration state, per node.

    ``drifted_nodes`` are *live* nodes serving a config other than the
    intended one — the hazard the reconcile loop repairs.  Down nodes
    with stale configs are listed separately (they serve nothing; their
    drift is caught when they rejoin).
    """

    intended_fingerprint: str
    node_fingerprints: Tuple[str, ...]
    drifted_nodes: Tuple[int, ...]
    down_drifted_nodes: Tuple[int, ...] = ()

    @property
    def has_drift(self) -> bool:
        return bool(self.drifted_nodes)


class Cluster:
    """A ring of identically configured simulated datastore nodes."""

    def __init__(
        self,
        datastore: Datastore,
        config: Configuration,
        n_nodes: int,
        replication_factor: int = 1,
        profile: Optional[WorkloadProfile] = None,
        seed: SeedLike = 0,
        events=None,
    ):
        if n_nodes <= 0:
            raise DatastoreError("cluster needs at least one node")
        if not (1 <= replication_factor <= n_nodes):
            raise DatastoreError(
                f"replication factor {replication_factor} must be in [1, {n_nodes}]"
            )
        self.datastore = datastore
        self.config = config
        self.n_nodes = n_nodes
        self.replication_factor = replication_factor
        root = seed if isinstance(seed, int) else int(derive_rng(seed).integers(2**31))
        seeds = SeedSequence(root)
        self.nodes: List[AnalyticLSMModel] = [
            datastore.new_analytic_instance(
                config, profile=profile, seed=seeds.stream(f"node{i}")
            )
            for i in range(n_nodes)
        ]
        self.t = 0.0
        self.events = events
        self._down: Set[int] = set()
        self._slowdown: Dict[int, float] = {}
        # Verified actuation: what each node is actually running, plus
        # the fault machinery that can make a push miss a node.
        self._applied: List[Configuration] = [config] * n_nodes
        self._push_refusals: Dict[int, int] = {}
        self._isolated: Set[int] = set()

    def _publish(self, topic: str, message: str, **payload) -> None:
        if self.events is not None:
            self.events.publish(topic, message, **payload)

    # -- fault state ----------------------------------------------------------

    def _check_node_index(self, node: int) -> None:
        if not (0 <= node < self.n_nodes):
            raise DatastoreError(
                f"node index {node} out of range [0, {self.n_nodes})"
            )

    def fail_node(self, node: int) -> None:
        """Mark a node down; it stops serving and absorbing load."""
        self._check_node_index(node)
        if node not in self._down and len(self._down) + 1 == self.n_nodes:
            raise DatastoreError("cannot fail the last live node")
        self._down.add(node)

    def recover_node(self, node: int) -> None:
        """Bring a failed node back into the serving set.

        The node rejoins with whatever configuration it last *applied* —
        not silently with the intended one.  A rejoin whose applied
        config has drifted from the intended config publishes a
        ``cluster.node_recovered`` event carrying both fingerprints, so
        a stale-config rejoin is an observable state the reconcile loop
        can act on instead of a silent throughput anomaly.  (Clean
        rejoins stay silent: fault-free rolling restarts recover nodes
        constantly and must not grow the event log.)
        """
        self._check_node_index(node)
        was_down = node in self._down
        self._down.discard(node)
        self._isolated.discard(node)
        if not was_down:
            return
        applied = self._applied[node].fingerprint()
        intended = self.config.fingerprint()
        if applied != intended:
            self._publish(
                "cluster.node_recovered",
                f"node {node} rejoined on stale config {applied} "
                f"(intended {intended})",
                node=node,
                applied_fingerprint=applied,
                intended_fingerprint=intended,
                drifted=True,
            )

    def refuse_pushes(self, node: int, count: int = 1) -> None:
        """Arm ``count`` consecutive config-push failures on one node.

        The ActuationFault mechanism: the next ``count`` calls to
        :meth:`apply_node_config` targeting ``node`` silently fail,
        leaving the node on its old configuration.  The data plane keeps
        serving — only read-back verification can tell.
        """
        self._check_node_index(node)
        if count < 1:
            raise ActuationError(f"refusal count must be >= 1, got {count}")
        self._push_refusals[node] = self._push_refusals.get(node, 0) + count

    def isolate_node(self, node: int) -> None:
        """Cut a node off from config pushes (StaleRecovery mechanism).

        While isolated, :meth:`apply_node_config` never reaches the node
        — a crashed-and-isolated node rejoins with its pre-crash config.
        Isolation clears when the node recovers.
        """
        self._check_node_index(node)
        self._isolated.add(node)

    def set_disk_slowdown(self, node: int, factor: float) -> None:
        """Degrade a node's effective throughput by ``factor`` (>= 1).

        ``factor=1.0`` clears the slowdown.  A slow disk on one replica
        drags the whole ring because the slowest live node bounds the
        balanced per-node rate.
        """
        self._check_node_index(node)
        if factor < 1.0:
            raise DatastoreError(f"slowdown factor must be >= 1, got {factor}")
        if factor == 1.0:
            self._slowdown.pop(node, None)
        else:
            self._slowdown[node] = float(factor)

    @property
    def live_node_indices(self) -> List[int]:
        return [i for i in range(self.n_nodes) if i not in self._down]

    @property
    def down_node_indices(self) -> List[int]:
        return sorted(self._down)

    # -- replication math -----------------------------------------------------------

    def _plan(self, read_ratio: float, dt: float = 1.0) -> tuple:
        """What a capacity solve takes from the live set and the mix:
        ``(live (node kernel, slowdown) pairs, node read share,
        fan-out)``.  A read touches one replica and a write every live
        one: down nodes take no replicas, so the effective RF shrinks
        with the live set.
        """
        if not (0.0 <= read_ratio <= 1.0):
            raise ValueError("read_ratio must be in [0, 1]")
        live = self.live_node_indices
        if not live:
            raise DatastoreError("no live nodes")
        rf = min(self.replication_factor, len(live))
        fanout = read_ratio + (1.0 - read_ratio) * rf
        node_rr = read_ratio / fanout
        slow = self._slowdown.get
        kernels = [(_node_seconds(self.nodes[i], node_rr, dt), slow(i, 1.0)) for i in live]
        return kernels, node_rr, fanout

    def _capacity(self, kernels, fanout: float) -> float:
        """Logical ops/s at this instant: the slowest live node bounds
        the balanced per-node rate, the shooters bound the ring.  Both
        bounds are builtin ``min`` as compare chains (no call per step):
        the first of tied values stays, and so does a NaN already held."""
        per_node = None
        for kernel, slow in kernels:
            x = next(kernel) / slow
            if per_node is None or x < per_node:
                per_node = x
        x, cap = per_node * len(kernels) / fanout, self.n_nodes * SHOOTER_CAPACITY_OPS
        return cap if cap < x else x

    def sustainable_throughput(self, read_ratio: float) -> float:
        """Logical ops/s the cluster sustains at this instant."""
        kernels, _, fanout = self._plan(read_ratio)
        x = self._capacity(kernels, fanout)
        for kernel, _ in kernels:
            kernel.close()
        return x

    # -- stepping --------------------------------------------------------------

    def run(self, read_ratio: float, duration: float, dt: float = 1.0) -> List[float]:
        """Step the cluster for ``duration`` seconds; the logical
        throughput (ops/s) of every step.

        One node-second kernel per live node for the whole run; a step is
        one :meth:`_capacity` over them and one absorb of every live
        node's share, with the same values the solve used.
        """
        if not dt > 0:
            raise ValueError("dt must be positive")
        if not duration > 0:
            raise ValueError("duration must be positive")
        kernels, node_rr, fanout = self._plan(read_ratio, dt)
        capacity, n_live = self._capacity, len(kernels)
        absorbs = [kernel.send for kernel, _ in kernels]
        series: List[float] = []
        for _ in range(max(1, int(round(duration / dt)))):
            x = capacity(kernels, fanout)
            node_ops = x * fanout / n_live
            step = (node_ops * node_rr * dt, node_ops * (1.0 - node_rr) * dt)
            for absorb in absorbs:
                absorb(step)
            self.t += dt
            series.append(x)
        for kernel, _ in kernels:
            kernel.close()
        return series

    def load(self, n_keys: int) -> None:
        """Load phase: each node stores its replicated share of keys.

        The total stored replica count is exactly
        ``n_keys * replication_factor``: the division remainder is
        spread over the first nodes instead of being silently dropped.
        """
        total = n_keys * self.replication_factor
        base, remainder = divmod(total, self.n_nodes)
        for i, node in enumerate(self.nodes):
            node.load(base + (1 if i < remainder else 0))

    # -- verified actuation ---------------------------------------------------

    def set_intended(self, config: Configuration) -> None:
        """Declare the ring's intended configuration (no knobs pushed)."""
        self.config = config

    def apply_node_config(
        self, node: int, config: Configuration, knobs: Optional[EngineKnobs] = None
    ) -> bool:
        """Push ``config`` to one node; returns whether it actually landed.

        A node armed with push refusals consumes one refusal and keeps
        its old configuration; a config-isolated node is unreachable and
        keeps it too.  Either way the failure is *silent* at the data
        plane — the return value (and :meth:`describe_drift` read-back)
        is the only way to know, exactly like a real partial push.
        """
        self._check_node_index(node)
        if self._push_refusals.get(node, 0) > 0:
            remaining = self._push_refusals[node] - 1
            if remaining:
                self._push_refusals[node] = remaining
            else:
                del self._push_refusals[node]
            return False
        if node in self._isolated:
            return False
        if knobs is None:
            knobs = self.datastore.effective_knobs(config)
        self.nodes[node].reconfigure(knobs)
        self._applied[node] = config
        return True

    def apply_config(
        self, config: Configuration, nodes: Optional[Sequence[int]] = None
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Push ``config`` to ``nodes`` (default: all); per-node results.

        Sets the intended config, then applies node by node; returns
        ``(applied, failed)`` index tuples.  Partial failure is not an
        exception — it is the drift state :meth:`describe_drift` reports
        and the middleware reconciles.
        """
        targets = range(self.n_nodes) if nodes is None else list(nodes)
        for node in targets:
            self._check_node_index(node)
        self.config = config
        knobs = self.datastore.effective_knobs(config)
        applied: List[int] = []
        failed: List[int] = []
        for node in targets:
            if self.apply_node_config(node, config, knobs=knobs):
                applied.append(node)
            else:
                failed.append(node)
        return tuple(applied), tuple(failed)

    def describe_drift(self) -> DriftReport:
        """Intended-vs-applied fingerprints, per node.

        Live nodes whose applied config differs from the intended one
        are the drifted set (they are *serving* the wrong knobs); down
        drifted nodes are reported separately.
        """
        intended = self.config.fingerprint()
        fingerprints = tuple(c.fingerprint() for c in self._applied)
        drifted = tuple(
            i
            for i, fp in enumerate(fingerprints)
            if fp != intended and i not in self._down
        )
        down_drifted = tuple(
            i
            for i, fp in enumerate(fingerprints)
            if fp != intended and i in self._down
        )
        return DriftReport(
            intended_fingerprint=intended,
            node_fingerprints=fingerprints,
            drifted_nodes=drifted,
            down_drifted_nodes=down_drifted,
        )

    def settle(self, max_seconds: float = 600.0) -> None:
        """Drain every node's background work (between phases)."""
        for node in self.nodes:
            node.settle(max_seconds)

    def __repr__(self) -> str:
        down = f", down={sorted(self._down)}" if self._down else ""
        return (
            f"Cluster({self.datastore.name} x{self.n_nodes}, "
            f"RF={self.replication_factor}{down})"
        )

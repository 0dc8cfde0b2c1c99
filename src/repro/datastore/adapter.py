"""Actuation layer: datastore lifecycle behind a uniform adapter.

Three call sites used to mint simulated servers by hand — the online
controller's ``_make_server``, the YCSB harness's fresh-instance-per-
sample reset, and the CLI's replay wiring.
:class:`SimulatedDatastoreAdapter` extracts that duplication into one
place that owns the full lifecycle: **provision** (fresh server or
cluster), **apply-config** (the legacy teleport push),
**rolling-restart** (per-node config application that charges the
transient capacity loss a real restart costs), and **teardown**.

The rolling restart is what makes reconfiguration cost a first-class
modeled event instead of a flat penalty constant: each node is taken out
of the serving set for ``restart_seconds_per_node`` simulated seconds
while the rest of the ring carries the load, so the report's ``ops_lost``
is exactly the capacity the restart transient cost — the quantity
Rafiki's hysteresis exists to amortize.

**Verified actuation.**  Pushes are fallible per node: a
:class:`~repro.datastore.cluster.Cluster` node armed with an
ActuationFault refusal (or config-isolated for a StaleRecovery) keeps
its old knobs, and the push reports carry the per-node applied/failed
split.  :meth:`SimulatedDatastoreAdapter.verify_config` is the
read-back — it returns the intended-vs-applied :class:`DriftReport` the
middleware's reconcile loop consumes — and
:meth:`SimulatedDatastoreAdapter.repair_config` re-pushes the intended
config to just the drifted nodes, charging the usual per-node
rolling-restart transient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.config.space import Configuration
from repro.datastore.base import Datastore
from repro.datastore.cluster import Cluster, DriftReport
from repro.errors import ActuationError, DatastoreError
from repro.lsm.analytic import WorkloadProfile
from repro.sim.rng import SeedLike

#: Simulated seconds one node needs to restart with a new configuration.
#: Rafiki's targets restart in tens of seconds (JVM warmup for Cassandra,
#: shard re-init for ScyllaDB); 30 s keeps the cost visible without
#: consuming a whole 15-minute window on small rings.
RESTART_SECONDS_PER_NODE = 30.0


@dataclass
class RollingRestartReport:
    """Accounting for one rolling config application."""

    nodes_restarted: int
    skipped_nodes: Tuple[int, ...]   # already-down nodes: knobs pushed, no cycle
    duration_s: float                # simulated time the rolling phase consumed
    ops_served: float                # logical ops completed during the phase
    ops_lost: float                  # capacity shortfall vs. the healthy ring
    steps: List[float] = field(default_factory=list)  # ops/s of each 1-s step served
    #: Per-node applied results: which nodes actually took the new config
    #: and which silently kept their old one (partial-push faults).
    applied_nodes: Tuple[int, ...] = ()
    failed_nodes: Tuple[int, ...] = ()


class SimulatedDatastoreAdapter:
    """Adapter over the simulated substrate (analytic model / Cluster).

    ``n_nodes == 1`` provisions a single analytic server;
    ``n_nodes > 1`` provisions a :class:`Cluster` with one YCSB shooter
    per node.  The online session layer talks to this class only, so
    swapping the simulated substrate for a real fleet driver means
    reimplementing its lifecycle methods.
    """

    def __init__(
        self,
        datastore: Datastore,
        initial_config: Optional[Configuration] = None,
        *,
        n_nodes: int = 1,
        replication_factor: int = 1,
        profile: Optional[WorkloadProfile] = None,
        seed: SeedLike = 0,
        restart_seconds_per_node: float = RESTART_SECONDS_PER_NODE,
        events=None,
    ):
        if n_nodes < 1:
            raise DatastoreError("adapter needs n_nodes >= 1")
        if not (1 <= replication_factor <= n_nodes):
            raise DatastoreError(
                f"replication factor {replication_factor} must be in [1, {n_nodes}]"
            )
        if restart_seconds_per_node < 0:
            raise DatastoreError("restart_seconds_per_node must be >= 0")
        self.datastore = datastore
        self.config = initial_config or datastore.default_configuration()
        self.n_nodes = n_nodes
        self.replication_factor = replication_factor
        self.profile = profile
        self.seed = seed
        self.restart_seconds_per_node = restart_seconds_per_node
        self.events = events
        self.server = None
        self.cluster: Optional[Cluster] = None
        # Single-server applied-config tracking (clusters track per node).
        self._applied_config: Configuration = self.config

    # -- lifecycle -------------------------------------------------------------

    def provision(self, load_keys: Optional[int] = None,
                  settle_seconds: Optional[float] = None):
        if self.n_nodes == 1:
            self.server = self.datastore.new_analytic_instance(
                self.config, profile=self.profile, seed=self.seed
            )
            self.cluster = None
        else:
            self.cluster = Cluster(
                self.datastore,
                self.config,
                n_nodes=self.n_nodes,
                replication_factor=self.replication_factor,
                profile=self.profile,
                seed=self.seed,
                events=self.events,
            )
            self.server = self.cluster
        if load_keys is not None:
            self.server.load(load_keys)
            if settle_seconds is None:
                self.server.settle()
            else:
                self.server.settle(settle_seconds)
        self._publish("actuate.provision",
                      f"provisioned {self.n_nodes} node(s)",
                      n_nodes=self.n_nodes,
                      replication_factor=self.replication_factor)
        return self.server

    def teardown(self) -> None:
        if self.server is not None:
            self._publish("actuate.teardown", "server released")
        self.server = None
        self.cluster = None

    # -- config application ----------------------------------------------------

    def apply_config(self, config: Configuration) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Push ``config`` to every node instantly; per-node results.

        Returns ``(applied, failed)`` node-index tuples.  On a cluster
        the push lands node by node, so an armed ActuationFault leaves
        its node on the old config — silently, exactly like the rolling
        path; only :meth:`verify_config` read-back tells.
        """
        self._require_server()
        if self.cluster is not None:
            applied, failed = self.cluster.apply_config(config)
        else:
            self.server.reconfigure(self.datastore.effective_knobs(config))
            self._applied_config = config
            applied, failed = (0,), ()
        self.config = config
        return applied, failed

    def rolling_restart(self, config: Configuration,
                        read_ratio: float) -> RollingRestartReport:
        """Per-node restart into ``config``; the transient is charged.

        While node *i* restarts it is out of the serving set: on a
        cluster the surviving nodes absorb the load (capped by the
        slowest live node, so capacity genuinely drops); on a single
        server the restart is full downtime.  Already-down nodes get the
        new knobs without a restart cycle — they rejoin with the current
        configuration, as :meth:`Cluster.reconfigure` guarantees.
        """
        self._require_server()
        knobs = self.datastore.effective_knobs(config)
        if self.cluster is None:
            report = self._single_node_restart(knobs, read_ratio)
            report.applied_nodes = (0,)
            self._applied_config = config
        else:
            # Declare the intent first: nodes the cycle has not reached
            # yet are *transiently* drifted, nodes a fault kept on the
            # old config remain drifted after — the read-back sees both.
            self.cluster.set_intended(config)
            report = self._cycle_nodes(
                range(self.cluster.n_nodes), config, knobs, read_ratio,
                rolling=True,
            )
        self.config = config
        self._publish(
            "actuate.rolling_restart",
            f"rolling restart: {report.nodes_restarted} node(s) in "
            f"{report.duration_s:.0f}s, {report.ops_lost:,.0f} ops of "
            "capacity lost",
            nodes_restarted=report.nodes_restarted,
            skipped_nodes=report.skipped_nodes,
            duration_s=report.duration_s,
            ops_served=report.ops_served,
            ops_lost=report.ops_lost,
            applied_nodes=report.applied_nodes,
            failed_nodes=report.failed_nodes,
        )
        return report

    # -- verification & repair --------------------------------------------------

    def verify_config(self) -> DriftReport:
        """Read back the per-node applied configs vs. the intended one.

        This is the actuation layer's trust-but-verify step (BestConfig
        restarts-and-verifies every configuration; Tuneful treats failed
        application as a first-class outcome): the report says exactly
        which live nodes serve a configuration other than the intended
        one.  Costless in simulation; on a real fleet this is a config
        read-back RPC per node.
        """
        self._require_server()
        if self.cluster is not None:
            return self.cluster.describe_drift()
        intended = self.config.fingerprint()
        applied = self._applied_config.fingerprint()
        return DriftReport(
            intended_fingerprint=intended,
            node_fingerprints=(applied,),
            drifted_nodes=(0,) if applied != intended else (),
        )

    def repair_config(self, nodes, read_ratio: float,
                      rolling: bool = True) -> RollingRestartReport:
        """Re-push the intended config to just the drifted ``nodes``.

        ``rolling=True`` cycles each node through a restart window (the
        surviving ring carries the load, so the repair charges the usual
        per-node transient); ``rolling=False`` is the instant-push
        repair.  Nodes that refuse again stay in ``failed_nodes`` — the
        caller decides whether to spend more budget or escalate.
        """
        self._require_server()
        nodes = tuple(nodes)
        if not nodes:
            raise ActuationError("repair_config needs at least one node")
        if self.cluster is None:
            raise ActuationError(
                "repair_config targets ring nodes; a single server cannot "
                "drift (re-push with apply_config instead)"
            )
        cluster = self.cluster
        for i in nodes:
            if not (0 <= i < cluster.n_nodes):
                raise ActuationError(
                    f"repair targets node {i} outside the ring "
                    f"[0, {cluster.n_nodes})"
                )
        report = self._cycle_nodes(
            nodes, self.config, self.datastore.effective_knobs(self.config),
            read_ratio, rolling,
        )
        self._publish(
            "actuate.repair",
            f"drift repair: re-pushed {len(report.applied_nodes)}/"
            f"{len(nodes)} node(s) in {report.duration_s:.0f}s "
            f"({report.ops_lost:,.0f} ops of capacity lost)",
            nodes=nodes,
            applied_nodes=report.applied_nodes,
            failed_nodes=report.failed_nodes,
            duration_s=report.duration_s,
            ops_lost=report.ops_lost,
        )
        return report

    # -- driving ---------------------------------------------------------------

    def run(self, read_ratio: float, duration: float, dt: float = 1.0):
        self._require_server()
        return self.server.run(read_ratio, duration, dt=dt)

    # -- internals -------------------------------------------------------------

    def _single_node_restart(self, knobs, read_ratio: float) -> RollingRestartReport:
        duration = self.restart_seconds_per_node
        healthy = self.server.sustainable_throughput(read_ratio)
        self.server.reconfigure(knobs)
        return RollingRestartReport(
            nodes_restarted=1,
            skipped_nodes=(),
            duration_s=duration,
            ops_served=0.0,
            ops_lost=healthy * duration,
            steps=[],
        )

    def _cycle_nodes(self, nodes, config: Configuration, knobs,
                     read_ratio: float, rolling: bool) -> RollingRestartReport:
        """Push ``config`` to ``nodes`` one by one; the report of doing so.

        ``rolling`` takes each live node out of the serving set for the
        restart window while the rest of the ring carries the load;
        otherwise the push is instant.  A restart window is served in
        one-second steps.
        """
        cluster = self.cluster
        healthy_cap = cluster.sustainable_throughput(read_ratio)
        steps: List = []
        restarted = 0
        skipped: List[int] = []
        applied: List[int] = []
        failed: List[int] = []
        down_before = set(cluster.down_node_indices)
        for i in nodes:
            # Crashed by a fault: push the config (it rejoins with the
            # current configuration — unless config-isolated by a
            # StaleRecovery fault) but do not cycle it — restarting
            # would wrongly resurrect it.
            skip = i in down_before
            if rolling and not skip:
                try:
                    cluster.fail_node(i)
                except DatastoreError:
                    # Last live node: push the config without a restart
                    # window rather than dropping the ring to zero capacity.
                    skip = True
            if skip:
                skipped.append(i)
            cycled = rolling and not skip
            if cycled and self.restart_seconds_per_node > 0:
                steps.extend(
                    cluster.run(read_ratio, self.restart_seconds_per_node)
                )
            # The restart cycle is spent either way; a push the node
            # refused (ActuationFault) brings it back on its *old*
            # config — a silent partial push the read-back must catch.
            ok = cluster.apply_node_config(i, config, knobs=knobs)
            (applied if ok else failed).append(i)
            if cycled:
                cluster.recover_node(i)
                restarted += 1
        duration = float(len(steps))
        ops_served = sum(steps)
        return RollingRestartReport(
            nodes_restarted=restarted,
            skipped_nodes=tuple(skipped),
            duration_s=duration,
            ops_served=ops_served,
            ops_lost=max(0.0, healthy_cap * duration - ops_served),
            steps=steps,
            applied_nodes=tuple(applied),
            failed_nodes=tuple(failed),
        )

    def _require_server(self) -> None:
        if self.server is None:
            raise DatastoreError(
                "adapter has no provisioned server (call provision() first)"
            )

    def _publish(self, topic: str, message: str, **payload) -> None:
        if self.events is not None:
            self.events.publish(topic, message, **payload)

    def __repr__(self) -> str:
        state = "provisioned" if self.server is not None else "empty"
        return (
            f"SimulatedDatastoreAdapter({self.datastore.name} x{self.n_nodes}, "
            f"RF={self.replication_factor}, {state})"
        )

"""Simulated NoSQL datastores.

:class:`CassandraLike` and :class:`ScyllaLike` wrap the LSM substrate
with the vendor-specific behaviours the paper relies on: Cassandra obeys
its configuration file verbatim; ScyllaDB's internal auto-tuner silently
overrides several user parameters and makes throughput oscillate
(paper §4.10, Figure 10).  :class:`Cluster` composes several instances
into a replicated peer-to-peer ring (Table 3's multi-server setup), and
:class:`SimulatedDatastoreAdapter` owns the provision / apply-config /
rolling-restart / teardown lifecycle on top of either.
"""

from repro.datastore.adapter import RollingRestartReport, SimulatedDatastoreAdapter
from repro.datastore.base import Datastore
from repro.datastore.cassandra import CassandraLike
from repro.datastore.scylla import ScyllaLike, ScyllaAutotuner
from repro.datastore.cluster import Cluster

__all__ = [
    "Datastore",
    "SimulatedDatastoreAdapter",
    "RollingRestartReport",
    "CassandraLike",
    "ScyllaLike",
    "ScyllaAutotuner",
    "Cluster",
]

"""repro: a reproduction of Rafiki (Middleware 2017).

Rafiki is a middleware for automatic parameter tuning of NoSQL
datastores under dynamic (metagenomics) workloads: ANOVA selects the key
configuration parameters, a Bayesian-regularized DNN ensemble learns a
throughput surrogate ``AOPS = fnet(workload, configuration)``, and a
genetic algorithm searches the surrogate for close-to-optimal settings
in seconds instead of the months an exhaustive benchmark sweep would
take.

Because the original evaluation requires physical Cassandra/ScyllaDB
testbeds, this package also ships the substrate: a working LSM-tree
storage engine over simulated hardware whose throughput responds to the
same mechanisms (compaction strategy, flush thresholds, caches, thread
pools) the paper tunes.  See DESIGN.md for the substitution map.

Quickstart::

    from repro import CassandraLike, RafikiPipeline, mgrast_workload

    cassandra = CassandraLike()
    pipeline = RafikiPipeline(cassandra, mgrast_workload(0.5), seed=7)
    rafiki, report = pipeline.run()
    best = rafiki.recommend(read_ratio=0.9)
    print(best.configuration.non_default_items())
"""

import importlib

__version__ = "1.0.0"

#: Home module of every public name.  ``import repro`` imports none of
#: them (and so no numpy); :func:`__getattr__` loads a name's home on
#: first use, so a process pays only for the layers it touches.
_HOMES = {
    "repro.config": (
        "CASSANDRA_KEY_PARAMETERS", "Configuration", "ConfigurationSpace",
        "SCYLLA_KEY_PARAMETERS", "cassandra_space", "scylla_space",
    ),
    "repro.datastore": (
        "CassandraLike", "Cluster", "ScyllaLike",
    ),
    "repro.errors": (
        "FaultError", "PersistenceError", "ReproError", "SearchError", "TrainingError",
        "TransientError",
    ),
    "repro.faults": (
        "ActuationFault", "FaultInjector", "FaultPlan", "StaleRecovery",
    ),
    "repro.bench": (
        "BenchmarkResult", "DataCollectionCampaign", "PerformanceDataset",
        "PerformanceSample", "YCSBBenchmark",
    ),
    "repro.core": (
        "ConfigurationOptimizer", "DecisionPolicy", "ExhaustiveSearch",
        "ForecastPolicy", "GreedySearch", "HysteresisPolicy", "OptimizationResult",
        "OraclePolicy", "Rafiki", "RafikiPipeline", "RandomSearch",
        "ReactivePolicy", "RecommendationCache", "SurrogateModel", "rank_parameters",
        "select_key_parameters",
    ),
    "repro.middleware": (
        "DriftReconciler", "GuardSpec", "MiddlewareScheduler", "ReconcileSpec",
        "SimulatedDatastoreAdapter", "SloSpec", "TenantGuard", "TenantSession",
        "TenantSpec", "load_manifest",
    ),
    "repro.runtime": (
        "EventBus", "ExecutionBackend", "ProcessPoolBackend", "ScopedEventBus",
        "SerialBackend",
    ),
    "repro.workload": (
        "MGRastTraceGenerator", "Trace", "WorkloadSpec", "characterize_trace",
    ),
    "repro.workload.spec": ("mgrast_workload",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [
    "__version__",
    # configuration
    "Configuration",
    "ConfigurationSpace",
    "cassandra_space",
    "scylla_space",
    "CASSANDRA_KEY_PARAMETERS",
    "SCYLLA_KEY_PARAMETERS",
    # datastores
    "CassandraLike",
    "ScyllaLike",
    "Cluster",
    # benchmarking
    "YCSBBenchmark",
    "BenchmarkResult",
    "DataCollectionCampaign",
    "PerformanceDataset",
    "PerformanceSample",
    # core
    "Rafiki",
    "RafikiPipeline",
    "SurrogateModel",
    "ConfigurationOptimizer",
    "ExhaustiveSearch",
    "GreedySearch",
    "RandomSearch",
    "OptimizationResult",
    "rank_parameters",
    "select_key_parameters",
    "RecommendationCache",
    # middleware service layer
    "MiddlewareScheduler",
    "TenantSession",
    "TenantSpec",
    "SimulatedDatastoreAdapter",
    "load_manifest",
    "SloSpec",
    "GuardSpec",
    "TenantGuard",
    "ReconcileSpec",
    "DriftReconciler",
    # fault injection
    "FaultPlan",
    "FaultInjector",
    "ActuationFault",
    "StaleRecovery",
    # decision policies
    "DecisionPolicy",
    "OraclePolicy",
    "ReactivePolicy",
    "ForecastPolicy",
    "HysteresisPolicy",
    # errors raised by the root-level API
    "ReproError",
    "SearchError",
    "TrainingError",
    "FaultError",
    "TransientError",
    "PersistenceError",
    # runtime
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "EventBus",
    "ScopedEventBus",
    # workloads
    "WorkloadSpec",
    "mgrast_workload",
    "MGRastTraceGenerator",
    "Trace",
    "characterize_trace",
]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

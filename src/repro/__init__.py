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

from repro.config import (
    CASSANDRA_KEY_PARAMETERS,
    Configuration,
    ConfigurationSpace,
    SCYLLA_KEY_PARAMETERS,
    cassandra_space,
    scylla_space,
)
from repro.datastore import CassandraLike, Cluster, EngineCluster, HashRing, ScyllaLike
from repro.errors import (
    FaultError,
    PersistenceError,
    ReproError,
    SearchError,
    TrainingError,
    TransientError,
)
from repro.faults import (
    ActuationFault,
    CrashPoint,
    FaultInjector,
    FaultPlan,
    StaleRecovery,
)
from repro.bench import (
    BenchmarkResult,
    DataCollectionCampaign,
    PerformanceDataset,
    PerformanceSample,
    YCSBBenchmark,
)
from repro.core import (
    ConfigurationOptimizer,
    DecisionPolicy,
    ExhaustiveSearch,
    ForecastPolicy,
    GreedySearch,
    HysteresisPolicy,
    OptimizationResult,
    OraclePolicy,
    Rafiki,
    RetryPolicy,
    RafikiPipeline,
    RandomSearch,
    ReactivePolicy,
    RecommendationCache,
    SurrogateModel,
    rank_parameters,
    select_key_parameters,
)
from repro.middleware import (
    DriftReconciler,
    GuardSpec,
    MiddlewareScheduler,
    ReconcileSpec,
    SimulatedDatastoreAdapter,
    SloSpec,
    TenantGuard,
    TenantSession,
    TenantSpec,
    load_manifest,
)
from repro.runtime import (
    EventBus,
    ExecutionBackend,
    ProcessPoolBackend,
    ScopedEventBus,
    SerialBackend,
)
from repro.workload import (
    MGRastTraceGenerator,
    Trace,
    WorkloadSpec,
    characterize_trace,
)
from repro.workload.spec import mgrast_workload

__version__ = "1.0.0"

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
    "EngineCluster",
    "HashRing",
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
    "RetryPolicy",
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
    "CrashPoint",
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

"""Rafiki's core: the paper's primary contribution.

The five workflow stages (§3.1) map onto this package:

1. Workload characterization   -> :mod:`repro.workload.characterize`
2. Important-parameter ID      -> :mod:`repro.core.anova`
3. Data collection             -> :mod:`repro.bench.collection`
4. Surrogate modelling         -> :mod:`repro.core.surrogate`
5. Configuration optimization  -> :mod:`repro.core.search`

:class:`~repro.core.rafiki.Rafiki` glues them into the middleware;
:mod:`repro.middleware` applies it to live workload streams.
"""

from repro.core.anova import (
    AnovaRanking,
    ParameterEffect,
    rank_parameters,
    select_key_parameters,
    consolidate_memtable_parameters,
)
from repro.core.surrogate import SurrogateModel
from repro.core.search import (
    ConfigurationOptimizer,
    ExhaustiveSearch,
    GreedySearch,
    RandomSearch,
    OptimizationResult,
    SAMPLE_WALL_SECONDS,
)
from repro.core.cache import CacheStats, RecommendationCache
from repro.core.policies import (
    DecisionPolicy,
    ForecastPolicy,
    HysteresisPolicy,
    OraclePolicy,
    ReactivePolicy,
    WindowObservation,
    make_policy,
)
from repro.core.rafiki import Rafiki, RafikiPipeline, PipelineReport
from repro.core.controller import ControllerEvent
from repro.core.persistence import load_surrogate, save_surrogate

__all__ = [
    "CacheStats",
    "RecommendationCache",
    "DecisionPolicy",
    "OraclePolicy",
    "ReactivePolicy",
    "ForecastPolicy",
    "HysteresisPolicy",
    "WindowObservation",
    "make_policy",
    "AnovaRanking",
    "ParameterEffect",
    "rank_parameters",
    "select_key_parameters",
    "consolidate_memtable_parameters",
    "SurrogateModel",
    "ConfigurationOptimizer",
    "ExhaustiveSearch",
    "GreedySearch",
    "RandomSearch",
    "OptimizationResult",
    "SAMPLE_WALL_SECONDS",
    "Rafiki",
    "RafikiPipeline",
    "PipelineReport",
    "ControllerEvent",
    "save_surrogate",
    "load_surrogate",
]

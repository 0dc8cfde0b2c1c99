"""ScyllaDB-like datastore with an internal auto-tuner.

The paper's two ScyllaDB findings (§4.10, Figure 10) are modelled here:

1. **Hidden parameter**: "user settings for many configuration
   parameters are ignored by ScyllaDB, giving preference to its internal
   auto-tuning".  :meth:`ScyllaLike.effective_knobs` replaces the
   auto-tuned parameters with the tuner's own near-recommended choices,
   so varying them in a config file changes nothing mechanical — which
   is why naive ANOVA on ScyllaDB misattributes significance.
2. **Tuning-induced variance**: "even in an otherwise stationary system
   ... the throughput of ScyllaDB varies significantly" (up to ~60 % for
   ~40 s).  :class:`ScyllaAutotuner` produces a piecewise-constant
   multiplicative modulation whose realization depends on the applied
   configuration (interaction with the hidden tuner), injected through a
   model subclass.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Tuple

import numpy as np

from repro.config.scylla import (
    SCYLLA_AUTOTUNED_PARAMETERS,
    SCYLLA_KEY_PARAMETERS,
    scylla_space,
)
from repro.config.space import Configuration, ConfigurationSpace
from repro.datastore.base import Datastore
from repro.lsm.analytic import AnalyticLSMModel, WorkloadProfile
from repro.lsm.knobs import MB, EngineKnobs
from repro.sim.rng import SeedLike, derive_rng


class ScyllaAutotuner:
    """Piecewise-constant throughput modulation from the internal tuner.

    Every dwell period (mean ~40 s, exponential) the tuner re-balances
    its IO/CPU scheduler; the achieved throughput jumps to a new level
    drawn log-normally around 1.0.  The random realization is seeded from
    the *configuration*, capturing the paper's observation that changing
    any parameter perturbs the tuner's behaviour.
    """

    def __init__(self, seed: int, sigma: float = 0.16, mean_dwell_s: float = 40.0):
        self.rng = derive_rng(seed)
        self.sigma = sigma
        self.mean_dwell_s = mean_dwell_s
        self._level = 1.0
        self._until = 0.0
        # The first dwell period and level are drawn now, not by the first
        # solve: asking a fresh model its capacity leaves it as it was.
        self.multiplier(0.0)

    def multiplier(self, t: float) -> float:
        """Current modulation factor at simulated time ``t``."""
        while t >= self._until:
            self._until += max(self.rng.exponential(self.mean_dwell_s), 1.0)
            self._level = float(
                np.clip(math.exp(self.sigma * self.rng.standard_normal()), 0.55, 1.6)
            )
        return self._level


class _ScyllaAnalyticModel(AnalyticLSMModel):
    """Analytic model whose throughput the auto-tuner modulates."""

    def __init__(self, *args, autotuner: ScyllaAutotuner, **kwargs):
        super().__init__(*args, **kwargs)
        self.autotuner = autotuner

    def _throughput_modulation(self, t: float) -> float:
        """The internal tuner's level: every solve is multiplied by it."""
        return self.autotuner.multiplier(t)


class ScyllaLike(Datastore):
    """ScyllaDB 1.6 stand-in: Cassandra-compatible, self-tuning."""

    name = "scylladb"

    def _build_space(self) -> ConfigurationSpace:
        return scylla_space()

    @property
    def key_parameters(self) -> Tuple[str, ...]:
        return SCYLLA_KEY_PARAMETERS

    @property
    def autotuned_parameters(self) -> frozenset:
        return SCYLLA_AUTOTUNED_PARAMETERS

    def effective_knobs(self, config: Configuration) -> EngineKnobs:
        """User values for auto-tuned parameters are discarded.

        The internal tuner sizes concurrency near the vendor-recommended
        sweet spots for the hardware (8 threads/core for writes, a
        heap-quarter unified cache, compactors per core), regardless of
        what the YAML file says.
        """
        base = EngineKnobs.from_configuration(config)
        cores = self.hardware.cpu_cores
        return EngineKnobs(
            compaction_method=base.compaction_method,
            concurrent_writes=8 * cores,
            concurrent_reads=8 * cores,
            file_cache_bytes=min(self.hardware.heap_bytes // 4, 2048 * MB),
            memtable_space_bytes=base.memtable_space_bytes,
            memtable_cleanup_threshold=base.memtable_cleanup_threshold,
            memtable_flush_writers=base.memtable_flush_writers,
            concurrent_compactors=max(2, cores // 2),
            compaction_throughput_bytes=base.compaction_throughput_bytes,
            bloom_fp_chance=base.bloom_fp_chance,
            key_cache_bytes=base.key_cache_bytes,
            row_cache_bytes=base.row_cache_bytes,
            commitlog_segment_bytes=base.commitlog_segment_bytes,
            commitlog_sync_period_s=base.commitlog_sync_period_s,
            sstable_target_bytes=base.sstable_target_bytes,
        )

    def new_analytic_instance(
        self,
        config: Configuration,
        profile: Optional[WorkloadProfile] = None,
        seed: SeedLike = 0,
        noise_sigma: float = 0.03,
    ) -> AnalyticLSMModel:
        self.validate_configuration(config)
        seed_rng = derive_rng(seed)
        # The tuner's realization depends on the configuration: every
        # parameter interacts with the hidden tuner (paper §4.10).  A
        # stable digest (not built-in hash(), which is process-salted)
        # keeps experiments reproducible across runs.
        digest = hashlib.md5(
            repr(sorted(config.items())).encode("utf-8")
        ).digest()
        config_entropy = int.from_bytes(digest[:4], "little")
        tuner_seed = (config_entropy ^ int(seed_rng.integers(0, 2**31 - 1))) & 0x7FFFFFFF
        return _ScyllaAnalyticModel(
            knobs=self.effective_knobs(config),
            hardware=self.hardware,
            costs=self.costs,
            profile=profile,
            seed=seed_rng,
            noise_sigma=noise_sigma,
            autotuner=ScyllaAutotuner(seed=tuner_seed),
        )

"""Property-based tests on GA invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.ga.algorithm import GeneticAlgorithm
from repro.ga.encoding import ConfigurationEncoder
from tests.oracles import lockstep_fitness

SPACE = cassandra_space()
ENCODER = ConfigurationEncoder(SPACE, CASSANDRA_KEY_PARAMETERS)


class TestGaInvariants:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_result_always_feasible(self, seed):
        """Whatever the fitness landscape, the returned configuration is
        valid (integral, in bounds)."""
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal(ENCODER.n_genes)

        def fitness(genes):
            return float(weights @ genes)

        ga = GeneticAlgorithm(
            ENCODER, lockstep_fitness(fitness, per_row=True),
            population_size=12, generations=6,
        )
        result = ga.run(seed=seed)
        for name in ENCODER.names:
            SPACE[name].validate(result.best_configuration[name])

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_penalty_strictly_reduces_fitness(self, seed):
        """Of rows with equal raw fitness, a feasible one outranks every
        infeasible one under the adaptive penalty: the vendor default,
        seeded into a flat landscape, is generation 1's first elite."""
        seen = []

        def flat(batch, mask):
            seen.append(batch[mask].copy())
            return np.zeros(np.count_nonzero(mask))

        default = ENCODER.encode(SPACE.default_configuration())
        GeneticAlgorithm(ENCODER, flat, population_size=12, generations=1).run(
            seed=seed, initial=[default]
        )
        assert seen[1][0].tobytes() == default.tobytes()

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_crossover_children_stay_in_bounds(self, seed):
        """Without mutation, generation 1's rows lie in generation 0's
        per-gene hull, and so within bounds."""
        seen = []

        def fitness(batch, mask):
            rows = batch[mask]
            seen.append(rows.copy())
            return rows @ np.arange(1.0, ENCODER.n_genes + 1)

        GeneticAlgorithm(
            ENCODER, fitness, population_size=12, generations=1, mutation_rate=0.0
        ).run(seed=seed)
        parents, children = seen[0], seen[1][:12]
        assert np.all(children >= parents.min(axis=0) - 1e-9)
        assert np.all(children <= parents.max(axis=0) + 1e-9)
        assert np.all(children >= ENCODER.lower) and np.all(children <= ENCODER.upper)

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_more_generations_never_worse(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.uniform(ENCODER.lower, ENCODER.upper)

        def fitness(genes):
            return -float(np.sum((genes - target) ** 2))

        short = GeneticAlgorithm(
            ENCODER, lockstep_fitness(fitness, per_row=True), population_size=12, generations=3,
            stagnation_limit=10**9,
        ).run(seed=seed)
        long = GeneticAlgorithm(
            ENCODER, lockstep_fitness(fitness, per_row=True), population_size=12, generations=25,
            stagnation_limit=10**9,
        ).run(seed=seed)
        assert long.best_fitness >= short.best_fitness - 1e-9

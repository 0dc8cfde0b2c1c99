"""The GA's variation operators, as the fitness sees them.

:class:`~repro.ga.algorithm.GeneticAlgorithm` runs tournament selection,
random-weighted average crossover and clipped gaussian mutation inline,
a whole generation at a time.  Each test here records the populations a
short run scores and checks one operator's property on generation 1's
children (the rows past the elites).  A tournament is the fittest of
three drawn contenders; ``tests/oracles.py::reference_ga_run`` holds its
draws and ties to the plain loop.
"""

import numpy as np
import pytest

from repro.config.parameter import FloatParameter
from repro.config.space import ConfigurationSpace
from repro.errors import SearchError
from repro.ga.algorithm import DEFAULT_ELITES, GeneticAlgorithm
from repro.ga.encoding import ConfigurationEncoder

N_GENES = 16
ENCODER = ConfigurationEncoder(
    ConfigurationSpace(
        "floats",
        [
            FloatParameter(name=f"g{i}", default=0.0, low=-5.0, high=10.0)
            for i in range(N_GENES)
        ],
    ),
    [f"g{i}" for i in range(N_GENES)],
)


def populations(population_size=16, generations=1, seed=0, initial=None, **kwargs):
    """Every generation's population, in scoring order, of one run."""
    seen = []

    def fitness(batch, mask):
        rows = batch[mask]
        if len(rows) >= population_size:  # a population, not a lone winner
            seen.append(rows[:population_size].copy())
        return -np.sum((rows - 1.0) ** 2, axis=-1)

    GeneticAlgorithm(
        ENCODER,
        fitness,
        population_size=population_size,
        generations=generations,
        stagnation_limit=10**9,
        **kwargs,
    ).run(seed=seed, initial=initial)
    return seen


def children(population_size=16, seed=0, initial=None, **kwargs):
    """Generation 0's population and generation 1's children."""
    first, second = populations(population_size, 1, seed, initial, **kwargs)
    return first, second[DEFAULT_ELITES:]


class TestCrossover:
    def test_child_within_parent_hull(self):
        for seed in range(5):
            parents, kids = children(seed=seed, mutation_rate=0.0)
            assert np.all(kids >= parents.min(axis=0) - 1e-9)
            assert np.all(kids <= parents.max(axis=0) + 1e-9)

    def test_identical_parents_identical_child(self):
        genes = np.linspace(-4.0, 9.0, N_GENES)
        _, kids = children(initial=[genes] * 16, mutation_rate=0.0)
        assert np.allclose(kids, genes)

    def test_per_gene_weights(self):
        """Each gene gets its own weight (not a single shared r): a child
        of one parent at the lower and one at the upper bound is not on
        the segment between them."""
        a, b = ENCODER.lower, ENCODER.upper
        _, kids = children(initial=[a, b] * 8, mutation_rate=0.0)
        weights = (kids - a) / (b - a)
        assert weights.std(axis=1).max() > 0.05


class TestMutation:
    def test_respects_bounds(self):
        for population in populations(
            generations=5, mutation_rate=1.0, mutation_scale=2.0
        ):
            assert np.all(population >= ENCODER.lower)
            assert np.all(population <= ENCODER.upper)

    def test_zero_rate_no_change(self):
        """With no gene drawn for mutation, the scale moves nothing: the
        children are the crossovers, bit for bit."""
        _, base = children(seed=3, mutation_rate=0.0, mutation_scale=0.0)
        _, scaled = children(seed=3, mutation_rate=0.0, mutation_scale=2.0)
        assert base.tobytes() == scaled.tobytes()

    def test_does_not_mutate_input_in_place(self):
        initial = [np.full(N_GENES, 0.5), np.full(N_GENES, 7.0)]
        originals = [genes.copy() for genes in initial]
        children(initial=initial, mutation_rate=1.0)
        for genes, original in zip(initial, originals):
            assert np.array_equal(genes, original)

    def test_scale_controls_step(self):
        """Same draws, three scales: the children move off the crossovers
        by more as the scale grows."""
        _, base = children(seed=4, mutation_rate=1.0, mutation_scale=0.0)
        _, small = children(seed=4, mutation_rate=1.0, mutation_scale=0.01)
        _, large = children(seed=4, mutation_rate=1.0, mutation_scale=0.2)
        assert 0.0 < np.abs(small - base).mean() < np.abs(large - base).mean()


class TestTournament:
    def test_single_individual(self):
        """A population of one individual, repeated, breeds only it for
        as long as nothing mutates: every tournament, elite and child of
        every generation is it."""
        genes = np.linspace(-3.0, 8.0, N_GENES)
        for population in populations(
            population_size=4, generations=6, initial=[genes] * 4, mutation_rate=0.0
        ):
            assert np.allclose(population, genes)

    def test_empty_rejected(self):
        for size in (0, 3):
            with pytest.raises(SearchError, match="population"):
                GeneticAlgorithm(ENCODER, lambda batch, mask: 0.0, population_size=size)

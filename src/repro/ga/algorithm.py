"""The genetic algorithm driver.

Generational GA with elitism: tournament parents, random-weighted
average crossover, gaussian mutation, Deb-penalized fitness.  Budgeted
by surrogate evaluations — the paper reports ~3,350 evaluations per
search at ~45 us each (§4.8) — so results carry an evaluation count the
search-efficiency experiments can convert into simulated benchmark time
saved.

Fitness can be supplied two ways:

* ``fitness_fn(genes) -> float`` — the scalar reference path, one call
  per individual;
* ``fitness_batch_fn(genes_matrix) -> (n,) array`` — the fast path, one
  call per *generation* scoring the whole population at once.

When both are given the batched path runs; the scalar path is retained
as the reference implementation the equivalence tests compare against.
The two paths consume the RNG identically and count evaluations
identically, so a batch function whose rows match the scalar function
bit-for-bit yields a bit-identical :class:`GAResult`.

The population is one ``(P, n_genes)`` matrix from the first draw to the
last generation, and every row of it lies within the encoder's bounds:
selection, crossover, mutation, the penalty and the feasibility snap
all run in array space — the operators of :mod:`repro.ga.operators`,
written inline for a whole generation — and a
:class:`~repro.config.space.Configuration` is built exactly once, for
the winner.  A generation costs one fitness call: its population plus
the previous generation's snapped winner (see :meth:`GeneticAlgorithm.run`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.config.space import Configuration
from repro.errors import SearchError
from repro.ga.encoding import ConfigurationEncoder
from repro.runtime.events import EventBus
from repro.sim.rng import SeedLike, derive_rng

#: Defaults sized so a full run costs ~3,400 evaluations, matching §4.8.
DEFAULT_POPULATION = 48
DEFAULT_GENERATIONS = 70
DEFAULT_ELITES = 2
DEFAULT_STAGNATION_LIMIT = 25


@dataclass
class GAResult:
    """Outcome of one GA search."""

    best_configuration: Configuration
    best_fitness: float
    evaluations: int
    generations: int
    history: List[float] = field(default_factory=list)  # best-so-far per gen


def _check_sizes(population_size: int, generations: int, elites: int = DEFAULT_ELITES) -> None:
    """The GA's size rules, shared with the optimizers that build GAs
    per search so they can refuse a bad budget when constructed."""
    if population_size < 4:
        raise SearchError("population must be at least 4")
    if generations < 1:
        raise SearchError("need at least one generation")
    if not (0 <= elites < population_size):
        raise SearchError("elites must fit inside the population")


class GeneticAlgorithm:
    """Maximizes ``fitness(genes_features)`` over a configuration space.

    Parameters
    ----------
    encoder:
        Gene <-> configuration mapping for the tuned parameters.
    fitness_fn:
        Maps a raw gene vector to a raw (unpenalized) fitness; in Rafiki
        this queries the surrogate with the workload fixed (Equation 4).
    fitness_batch_fn:
        Maps a ``(n, n_genes)`` matrix to ``(n,)`` raw fitnesses in one
        call.  Preferred when present: the surrogate then runs each
        member network once per generation instead of once per
        individual.
    penalty_scale:
        Deb-penalty coefficient, finite and non-negative; if None it is
        set adaptively to the spread of the initial population's fitness,
        which must then be finite.
    bus:
        Optional :class:`~repro.runtime.events.EventBus`; when given,
        ``run`` publishes ``search.start`` / ``search.generation`` /
        ``search.done`` progress events.
    """

    def __init__(
        self,
        encoder: ConfigurationEncoder,
        fitness_fn: Optional[Callable[[np.ndarray], float]] = None,
        population_size: int = DEFAULT_POPULATION,
        generations: int = DEFAULT_GENERATIONS,
        elites: int = DEFAULT_ELITES,
        mutation_rate: float = 0.2,
        mutation_scale: float = 0.08,
        stagnation_limit: int = DEFAULT_STAGNATION_LIMIT,
        penalty_scale: Optional[float] = None,
        fitness_batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        bus: Optional[EventBus] = None,
    ):
        _check_sizes(population_size, generations, elites)
        if not (0.0 <= mutation_rate <= 1.0):
            raise SearchError("mutation_rate must be in [0, 1]")
        if not 0.0 <= mutation_scale < math.inf:
            raise SearchError("mutation_scale must be finite and non-negative")
        if penalty_scale is not None and not 0.0 <= penalty_scale < math.inf:
            raise SearchError("penalty_scale must be finite and non-negative")
        if stagnation_limit < 1:
            raise SearchError("stagnation_limit must be at least 1")
        if fitness_fn is None and fitness_batch_fn is None:
            raise SearchError("need fitness_fn or fitness_batch_fn")
        self.encoder = encoder
        self.fitness_fn = fitness_fn
        self.fitness_batch_fn = fitness_batch_fn
        self.population_size = population_size
        self.generations = generations
        self.elites = elites
        self.mutation_rate = mutation_rate
        self.mutation_scale = mutation_scale
        self.stagnation_limit = stagnation_limit
        self.penalty_scale = penalty_scale
        self.bus = bus
        self.evaluations = 0

    # -- evaluation ------------------------------------------------------------

    def _raw_fitness_many(self, population: np.ndarray) -> np.ndarray:
        """Raw fitness of every row; one batched call if possible."""
        self.evaluations += len(population)
        if self.fitness_batch_fn is not None:
            out = np.asarray(self.fitness_batch_fn(population), dtype=float).ravel()
            if out.shape[0] != len(population):
                raise SearchError(
                    f"fitness_batch_fn returned {out.shape[0]} scores "
                    f"for {len(population)} individuals"
                )
            return out
        return np.array([float(self.fitness_fn(g)) for g in population])

    def _publish(self, topic: str, message: str, **payload) -> None:
        if self.bus is not None:
            self.bus.publish(topic, message, **payload)

    # -- main loop ---------------------------------------------------------------

    def run(
        self,
        seed: SeedLike = 0,
        initial: Optional[Sequence[np.ndarray]] = None,
    ) -> GAResult:
        """Run the GA; returns the best *feasible* configuration found.

        ``initial`` gene vectors, each within the encoder's bounds,
        replace the first rows of the random initial population.

        Every generation's winner is snapped to feasibility and re-scored
        on its snapped genes, so the reported fitness belongs to an
        applicable configuration.  That one-row score rides as the last
        row of the *next* generation's batch and the generation is booked
        right after that call; it is scored at once only where booking it
        can end the search (the last generation, or one more stagnant
        generation reaching the limit).  Rows scored, RNG draws and
        events are those of scoring every winner at once.
        """
        encoder = self.encoder
        lower, upper, n_genes = encoder.lower, encoder.upper, encoder.n_genes
        initial_genes = [np.asarray(genes, dtype=float) for genes in initial or ()]
        for genes in initial_genes:
            if genes.shape != (n_genes,):
                raise SearchError(
                    f"initial genes must have shape ({n_genes},), got {genes.shape}"
                )
            if not np.all((genes >= lower) & (genes <= upper)):
                raise SearchError("initial genes must lie within the encoder's bounds")
        rng = derive_rng(seed)
        self.evaluations = 0
        self._publish(
            "search.start",
            f"GA search over {n_genes} genes",
            population=self.population_size,
            generations=self.generations,
            batched=self.fitness_batch_fn is not None,
        )
        population_size, elites = self.population_size, self.elites
        mutation_rate, mutation_scale = self.mutation_rate, self.mutation_scale
        stagnation_limit, bus = self.stagnation_limit, self.bus
        n_children = population_size - elites
        # Each child's two tournaments, three contenders a row: a
        # winner's offset into the flattened draw is 3 * row + its column.
        row_offsets = np.arange(0, 6 * n_children, 3)
        best_genes, best_fit, stagnant, history = None, None, 0, []

        def book(generation: int, genes: np.ndarray, raw: float, evaluations: int) -> bool:
            """Settle a generation on its re-scored winner; True ends the search."""
            nonlocal best_genes, best_fit, stagnant
            if generation == 0 or raw > best_fit + 1e-12:
                best_genes, best_fit, stagnant = genes, raw, 0
            else:
                stagnant += 1
            history.append(best_fit)
            if generation and bus is not None:  # the message is built only to be heard
                bus.publish(
                    "search.generation",
                    f"generation {generation}: best {best_fit:,.1f}",
                    generation=generation,
                    best_fitness=best_fit,
                    evaluations=evaluations,
                )
            return stagnant >= stagnation_limit

        # The population stays within bounds from here on: a uniform
        # draw (the same stream, and the same rows, as ``population_size``
        # calls of ``encoder.random_genes``), validated seeds, and
        # children clipped by the mutation.
        population = rng.uniform(lower, upper, size=(population_size, n_genes))
        for i, genes in enumerate(initial_genes[:population_size]):
            population[i] = genes
        winner = None  # the previous generation's, when it rides along
        for generation in range(self.generations + 1):
            if generation:
                # A fresh batch per generation (elites, children, riding
                # winner): the elites are read from the previous one after
                # the children are written.  Variation draws one block per
                # kind: both parents of every child (3-way tournaments, ties
                # to the earliest-drawn contender), crossover weights and
                # mutation mask together, the mutation noise.
                batch = np.empty((population_size + 1, n_genes))
                children = batch[elites:population_size]
                elite_rows = fitness.argsort()[: -elites - 1 : -1]
                contenders = rng.integers(population_size, size=(2 * n_children, 3))
                picks = fitness[contenders].argmax(axis=1)
                picks += row_offsets
                parents = population.take(contenders.take(picks), axis=0)
                weights, mutate = rng.random((2, n_children, n_genes))
                np.multiply(weights, parents[:n_children], out=children)
                # (1 - weights) * second parents, in the weight block: the
                # first parents' product above was the weights' last use.
                np.subtract(1.0, weights, out=weights)
                weights *= parents[n_children:]
                children += weights
                noise = rng.standard_normal((n_children, n_genes))
                noise *= mutation_scale  # noise * scale * span, left to right
                noise *= encoder.span
                np.add(children, noise, out=children, where=mutate < mutation_rate)
                # np.clip without its wrapper.  The two differ only on
                # a signed zero against a zero bound, and no draw,
                # crossover or mutation makes a -0.0 gene: only an
                # ``initial`` seed can bring one in.
                np.maximum(children, lower, out=children)
                np.minimum(children, upper, out=children)
                population.take(elite_rows, axis=0, out=batch[:elites])
                population = batch[:population_size]
            if winner is None:
                raw = self._raw_fitness_many(population)
            else:
                batch[-1] = winner
                raw = self._raw_fitness_many(batch)
                book(
                    generation - 1,
                    winner,
                    float(raw[-1]),
                    self.evaluations - population_size,
                )
                raw = raw[:-1]
            if generation == 0:
                penalty_scale = self.penalty_scale
                if penalty_scale is None:
                    with np.errstate(invalid="ignore", over="ignore"):
                        spread = max(np.ptp(raw), abs(np.mean(raw)) * 0.1, 1e-9)
                    penalty_scale = 2.0 * spread
                    if not penalty_scale < math.inf:
                        raise SearchError(
                            "generation 0's fitness spread is not finite: "
                            "no penalty scale derives from it"
                        )
            # Deb penalty: the population is within bounds, so its
            # violation is the integrality gap alone.  Feasible rows pass
            # through untouched, as in :func:`penalized_fitness`, with no
            # mask: a finite scale times their zero gap is 0.0, and
            # ``raw - 0.0`` is ``raw`` bit for bit.
            fitness = encoder._integrality_gap(population)
            fitness *= penalty_scale
            np.subtract(raw, fitness, out=fitness)
            # ``encoder.snap`` of an in-bounds row: its clip is the identity.
            best = population[fitness.argmax()]
            winner = np.where(encoder.integral, best.round() + 0.0, best)
            if generation == self.generations or stagnant + 1 >= stagnation_limit:
                raw_winner = float(self._raw_fitness_many(winner[None, :])[0])
                if book(generation, winner, raw_winner, self.evaluations):
                    break
                winner = None

        config = encoder.decode(best_genes)
        self._publish(
            "search.done",
            f"search finished after {generation} generations",
            generations=generation,
            best_fitness=best_fit,
            evaluations=self.evaluations,
        )
        return GAResult(
            best_configuration=config,
            best_fitness=best_fit,
            evaluations=self.evaluations,
            generations=generation,
            history=history,
        )

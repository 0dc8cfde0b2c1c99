"""The genetic algorithm driver.

Generational GA with elitism: tournament parents, random-weighted
average crossover, gaussian mutation, Deb-penalized fitness.  Budgeted
by surrogate evaluations — the paper reports ~3,350 evaluations per
search at ~45 us each (§4.8) — so results carry an evaluation count the
search-efficiency experiments can convert into simulated benchmark time
saved.

Fitness comes in one form, ``fitness_lockstep_fn(batch, mask) -> (n,)
array``: one call per generation for *every* search of a lockstep run
(below), returning the scores of ``batch[mask]``, where the
generation's ``(S, P + 1, n_genes)`` batch holds each search's
population and, in its last row, a riding winner.

:meth:`GeneticAlgorithm.run_lockstep` runs S searches in lockstep, one
generation at a time for all of them, each on its own generator;
:meth:`GeneticAlgorithm.run` is its S = 1 case.  Each search
keeps its own penalty scale, riding winner, stagnation count, evaluation
count and early stop, and draws exactly what it would draw alone: S
searches cost S times the variation arithmetic (in one numpy call per
step) but one fitness call per generation.

The populations are one ``(S, P, n_genes)`` array from the first draw to
the last generation, and every row of it lies within the encoder's
bounds: selection, crossover, mutation, the penalty and the feasibility
snap all run in array space, a whole generation at a time, and a
:class:`~repro.config.space.Configuration` is built exactly once per
search, for its winner.  A generation costs one fitness call: the
populations plus each search's previous snapped winner (see
:meth:`GeneticAlgorithm.run_lockstep`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.config.space import Configuration
from repro.errors import SearchError
from repro.ga.encoding import ConfigurationEncoder
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


def _raw_bits(rng: np.random.Generator) -> Optional[np.random.PCG64]:
    """``rng``'s bit generator if its raw words decode to exactly what
    ``integers`` and ``random`` draw: a little-endian PCG64 with no 32-bit
    half buffered, whose ``next_uint32`` takes a word's low half, then its
    high one.  None sends the search to the public calls."""
    bits = rng.bit_generator
    if sys.byteorder == "little" and type(bits) is np.random.PCG64:
        if not bits.state["has_uint32"]:
            return bits
    return None


class GeneticAlgorithm:
    """Maximizes ``fitness(genes_features)`` over a configuration space.

    Parameters
    ----------
    encoder:
        Gene <-> configuration mapping for the tuned parameters.
    fitness_lockstep_fn:
        Maps a generation's ``(S, P + 1, n_genes)`` batch and its
        ``(S, P + 1)`` boolean mask to the raw (unpenalized) fitness of
        ``batch[mask]`` (search-major), in one call for all S searches,
        so search ``s`` may score on a fitness of its own.  In Rafiki it
        queries the surrogate with each search's workload fixed
        (Equation 4).
    penalty_scale:
        Deb-penalty coefficient, finite and non-negative; if None it is
        set adaptively, per search, to the spread of the initial
        population's fitness, which must then be finite.
    """

    def __init__(
        self,
        encoder: ConfigurationEncoder,
        fitness_lockstep_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        population_size: int = DEFAULT_POPULATION,
        generations: int = DEFAULT_GENERATIONS,
        elites: int = DEFAULT_ELITES,
        mutation_rate: float = 0.2,
        mutation_scale: float = 0.08,
        stagnation_limit: int = DEFAULT_STAGNATION_LIMIT,
        penalty_scale: Optional[float] = None,
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
        self.encoder = encoder
        self.fitness_lockstep_fn = fitness_lockstep_fn
        self.population_size = population_size
        self.generations = generations
        self.elites = elites
        self.mutation_rate = mutation_rate
        self.mutation_scale = mutation_scale
        self.stagnation_limit = stagnation_limit
        self.penalty_scale = penalty_scale

    # -- evaluation ------------------------------------------------------------

    def _raw_fitness(self, batch: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Raw fitness of ``batch[mask]``, one score per masked row."""
        out = np.asarray(self.fitness_lockstep_fn(batch, mask), dtype=float).ravel()
        rows = np.count_nonzero(mask)
        if out.shape[0] != rows:
            raise SearchError(
                f"fitness returned {out.shape[0]} scores for {rows} individuals"
            )
        return out

    # -- main loop ---------------------------------------------------------------

    def run(
        self,
        seed: SeedLike = 0,
        initial: Optional[Sequence[np.ndarray]] = None,
    ) -> GAResult:
        """Run the GA; returns the best *feasible* configuration found.

        The S = 1 case of :meth:`run_lockstep`.
        """
        return self.run_lockstep([seed], initial=initial)[0]

    def run_lockstep(
        self,
        seeds: Sequence[SeedLike],
        initial: Optional[Sequence[np.ndarray]] = None,
    ) -> List[GAResult]:
        """Run one search per seed, all a generation at a time; returns
        each search's best *feasible* configuration, in seed order.

        ``initial`` gene vectors, each within the encoder's bounds,
        replace the first rows of every search's random initial
        population.  Search ``s`` draws from ``derive_rng(seeds[s])``
        only, so its result and draws are those of running it alone.

        Every generation's winner is snapped to feasibility and re-scored
        on its snapped genes, so the reported fitness belongs to an
        applicable configuration.  That one-row score rides as the last
        row of the *next* generation's batch and the generation is booked
        right after that call; it is scored at once — in one call for
        all searches that need it — only where booking it can end the
        search (the last generation, or one more stagnant generation
        reaching the limit).  Rows scored and RNG draws are those of
        scoring every winner at once.  A stopped search draws
        nothing more and is neither scored nor booked again.

        A generation's draws are each live search's tournament indices
        and crossover/mutation uniforms, then its mutation noise through
        ``standard_normal``.  On a PCG64 with no 32-bit half buffered
        (checked once per search) the first two come as one
        ``random_raw`` block, decoded for all searches at once to exactly
        what ``integers`` and ``random`` draw; the generator's state
        afterwards is theirs too.  Any other generator takes those
        calls.  So does a search from the generation its block holds a
        Lemire rejection (~1e-6 per generation at P = 48): the block is
        rewound with ``advance`` and redrawn.
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
        rngs = [derive_rng(seed) for seed in seeds]
        n_searches = len(rngs)
        if n_searches < 1:
            raise SearchError("need at least one search")
        population_size, elites = self.population_size, self.elites
        mutation_rate, mutation_scale = self.mutation_rate, self.mutation_scale
        stagnation_limit, last = self.stagnation_limit, self.generations
        n_children = population_size - elites
        searches = range(n_searches)
        every = np.arange(n_searches)
        # Two (S, P + 1, G) batches, bred into by turns: a generation
        # reads its parents and elites from the other one.  Row P of a
        # search holds its riding winner.  Both start as zeros so rows no
        # call scores stay finite.
        batches = np.zeros((2, n_searches, population_size + 1, n_genes))
        # Flat offsets: search s's row r of a batch is row s * (P + 1) + r
        # of its (S * (P + 1), G) view, its fitness s * P + r of the
        # (S * P,) one, and each child's two tournaments, three
        # contenders a row, flatten to 3 * (s * 2 * children + row) + col.
        row_base = np.arange(0, n_searches * (population_size + 1), population_size + 1)[:, None]
        fitness_base = np.arange(0, n_searches * population_size, population_size)[:, None, None]
        pick_base = np.arange(0, 6 * n_children * n_searches, 3).reshape(n_searches, -1)
        contenders = np.zeros((n_searches, 2 * n_children, 3), dtype=np.int64)
        # The bounds and spans tiled to one search's children: a gene-long
        # operand broadcast over (S, children, G) runs the ufunc five
        # genes at a time; a (children, G) one, a search at a time.
        low, high, span = (
            bound[None].repeat(n_children, axis=0) for bound in (lower, upper, encoder.span)
        )
        draws = np.zeros((n_searches, 2, n_children, n_genes))
        noise = np.zeros((n_searches, n_children, n_genes))
        # A fused search's generation is one raw block: the tournaments'
        # 32-bit halves, two to a word, then a word per uniform.  It is
        # decoded for all searches at once with numpy's own formulas:
        # Lemire's ``(u * P) >> 32`` (a rejection when the low word of
        # ``u * P`` is under ``(2**32 - P) % P``) and ``(w >> 11) * 2**-53``.
        fused = [_raw_bits(rng) for rng in rngs]
        n_int_words = 3 * n_children
        n_words = n_int_words + draws[0].size
        words = np.zeros((n_searches, n_words), dtype=np.uint64)
        halves = words[:, :n_int_words].view(np.uint32)  # low half first
        scaled = np.zeros(halves.shape, dtype=np.uint64)
        mantissas = np.zeros((n_searches, draws[0].size), dtype=np.uint64)
        contender_bits = contenders.view(np.uint64).reshape(n_searches, -1)
        draw_bits = draws.reshape(n_searches, -1)
        width = np.uint64(population_size)
        threshold = (2**32 - population_size) % population_size
        keep = np.zeros(noise.shape, dtype=bool)
        raw = np.zeros((n_searches, population_size + 1))
        # The rows a generation's call scores: every live population,
        # and row P where a winner rides.
        mask = np.ones((n_searches, population_size + 1), dtype=bool)
        live = [True] * n_searches
        rides = [False] * n_searches   # a search's previous winner rides along
        evaluations = [0] * n_searches
        stagnant = [0] * n_searches
        best_genes: List[Optional[np.ndarray]] = [None] * n_searches
        best_fit = [0.0] * n_searches
        histories: List[List[float]] = [[] for _ in searches]
        stopped_at = [last] * n_searches

        def book(s: int, generation: int, genes: np.ndarray, raw: float) -> bool:
            """Settle search s's generation on its re-scored winner; True
            ends the search."""
            if generation == 0 or raw > best_fit[s] + 1e-12:
                best_genes[s], best_fit[s], stagnant[s] = genes, raw, 0
            else:
                stagnant[s] += 1
            histories[s].append(best_fit[s])
            return stagnant[s] >= stagnation_limit

        # The populations stay within bounds from here on: a uniform
        # draw per search, validated seeds, and children clipped by the mutation.
        batch = batches[0]
        for s in searches:
            batch[s, :population_size] = rngs[s].uniform(
                lower, upper, size=(population_size, n_genes)
            )
            for i, genes in enumerate(initial_genes[:population_size]):
                batch[s, i] = genes
        population = batch[:, :population_size]
        winners = None  # the previous generation's, riding where ``rides``
        for generation in range(last + 1):
            if generation:
                # Breed into the other batch (elites, children) from this
                # one's parents and elites.  Each live search draws, in its
                # own order: both parents of every child (3-way
                # tournaments, ties to the earliest-drawn contender), then
                # crossover weights and mutation mask together — one raw
                # block if fused, else ``integers`` and ``random`` — then
                # the mutation noise.  Every row is decoded, stale ones
                # too; the public calls overwrite theirs afterwards.
                parent_rows = batch.reshape(-1, n_genes)
                batch = batches[generation % 2]
                children = batch[:, elites:population_size]
                elite_rows = fitness.argsort(axis=1)[:, : -elites - 1 : -1]
                elite_rows += row_base
                rejected = []
                if fused.count(None) < n_searches:
                    for s in searches:
                        if live[s] and fused[s] is not None:
                            words[s] = fused[s].random_raw(n_words)
                    np.multiply(halves, width, out=scaled)
                    np.right_shift(scaled, 32, out=contender_bits)
                    np.right_shift(words[:, n_int_words:], 11, out=mantissas)
                    np.multiply(mantissas, 2.0**-53, out=draw_bits)
                    if threshold:
                        leftover = scaled.astype(np.uint32)
                        if leftover.min() < threshold:
                            rejected = np.flatnonzero((leftover < threshold).any(axis=1)).tolist()
                for s in searches:
                    if live[s]:
                        rng = rngs[s]
                        if fused[s] is not None and s in rejected:
                            # Rewind the block (``advance`` by minus its
                            # length) and stay on the public calls: the
                            # redraw leaves a half buffered.
                            fused[s].advance(2**128 - n_words)
                            fused[s] = None
                        if fused[s] is None:
                            contenders[s] = rng.integers(population_size, size=(2 * n_children, 3))
                            rng.random(out=draws[s])
                        rng.standard_normal(out=noise[s])
                picks = fitness.take(contenders + fitness_base).argmax(axis=2)
                picks += pick_base
                chosen = contenders.take(picks)
                chosen += row_base
                parents = parent_rows.take(chosen, axis=0)
                weights, mutate = draws[:, 0], draws[:, 1]
                np.multiply(weights, parents[:, :n_children], out=children)
                # (1 - weights) * second parents, in the weight block: the
                # first parents' product above was the weights' last use.
                np.subtract(1.0, weights, out=weights)
                weights *= parents[:, n_children:]
                children += weights
                noise *= mutation_scale  # noise * scale * span, left to right
                noise *= span
                # An unmutated gene adds -0.0: ``x + -0.0`` is x for every
                # x, signed zeros too, so the add needs no ``where=``.
                np.greater_equal(mutate, mutation_rate, out=keep)
                np.putmask(noise, keep, -0.0)
                children += noise
                # np.clip without its wrapper.  The two differ only on
                # a signed zero against a zero bound, and no draw,
                # crossover or mutation makes a -0.0 gene: only an
                # ``initial`` seed can bring one in.
                np.maximum(children, low, out=children)
                np.minimum(children, high, out=children)
                batch[:, :elites] = parent_rows.take(elite_rows, axis=0)
                population = batch[:, :population_size]
            mask[:, population_size] = rides
            if winners is not None:
                batch[:, population_size] = winners
            raw[mask] = self._raw_fitness(batch, mask)
            for s in searches:
                if rides[s]:  # booked as if scored before the population
                    evaluations[s] += 1
                    book(s, generation - 1, winners[s], float(raw[s, population_size]))
                if live[s]:
                    evaluations[s] += population_size
            if generation == 0:
                penalty_scales = self._penalty_scales(raw[:, :population_size])[:, None]
            # Deb penalty: the populations are within bounds, so their
            # violation is the integrality gap alone.  Feasible rows pass
            # through untouched with no mask: a finite scale times their zero gap is 0.0, and
            # ``raw - 0.0`` is ``raw`` bit for bit.
            fitness = encoder._integrality_gap(population)
            fitness *= penalty_scales
            np.subtract(raw[:, :population_size], fitness, out=fitness)
            # ``encoder.snap`` of an in-bounds row: its clip is the identity.
            best = population[every, fitness.argmax(axis=1)]
            winners = np.where(encoder.integral, best.round() + 0.0, best)
            spot = []  # searches whose winner's booking can end them
            for s in searches:
                rides[s] = live[s]
                if live[s] and (generation == last or stagnant[s] + 1 >= stagnation_limit):
                    rides[s] = False
                    spot.append(s)
            if spot:
                alone = np.zeros_like(mask)
                alone[spot, population_size] = True
                batch[:, population_size] = winners
                raw[alone] = self._raw_fitness(batch, alone)
                for s in spot:
                    evaluations[s] += 1
                    if book(s, generation, winners[s], float(raw[s, population_size])):
                        live[s], stopped_at[s] = False, generation
                        mask[s] = False
                        # Its stale draws are bred on unscored from here;
                        # zero noise keeps the repeated scaling finite.
                        noise[s] = 0.0
            if not any(live):
                break
        for s in searches:
            if fused[s] is not None:
                # ``integers`` leaves its last word's high half in the
                # bit generator's ``uinteger`` slot; so does a fused search.
                state = fused[s].state
                state["uinteger"] = int(words[s, n_int_words - 1] >> 32)
                fused[s].state = state
        return [
            GAResult(
                best_configuration=encoder.decode(best_genes[s]),
                best_fitness=best_fit[s],
                evaluations=evaluations[s],
                generations=stopped_at[s],
                history=histories[s],
            )
            for s in searches
        ]

    def _penalty_scales(self, raw: np.ndarray) -> np.ndarray:
        """Each search's Deb-penalty scale from its generation-0 scores
        (a row each): ``penalty_scale``, or twice the row's spread."""
        if self.penalty_scale is not None:
            return np.full(len(raw), self.penalty_scale, dtype=float)
        # Row by row what ``max(ptp, |mean| * 0.1, 1e-9)`` of the row
        # gives: ptp and the pairwise mean are per-row reductions.
        with np.errstate(invalid="ignore", over="ignore"):
            spread = np.maximum(np.ptp(raw, axis=1), abs(np.mean(raw, axis=1)) * 0.1)
            scales = 2.0 * np.maximum(spread, 1e-9)
        if not (scales < math.inf).all():
            raise SearchError(
                "generation 0's fitness spread is not finite: "
                "no penalty scale derives from it"
            )
        return scales

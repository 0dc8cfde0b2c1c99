"""GA variation and selection operators."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def weighted_average_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random-weighted average of two parents, per gene.

    The paper's crossover "calculates intermediate configurations within
    the bounds of the existing population (to enforce interpolation
    rather than extrapolation) by taking a random-weighted average
    between two points" (§3.7.2).  Each gene gets its own weight
    ``r ~ U(0,1)``: ``child_i = r_i * a_i + (1 - r_i) * b_i``.  (The
    paper's worked example divides the average by 2, which would shrink
    every child toward zero — we read that as a typo and keep the convex
    combination, which matches the stated interpolation intent.)
    """
    r = rng.random(parent_a.shape)
    return r * parent_a + (1.0 - r) * parent_b


def gaussian_mutation(
    genes: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    rate: float = 0.2,
    scale: float = 0.1,
) -> np.ndarray:
    """Per-gene gaussian jitter, scaled to the gene's range.

    Keeps the search from collapsing once crossover has interpolated the
    population into a small hull; results are clipped to bounds.
    """
    mutated = genes.copy()
    mask = rng.random(genes.shape) < rate
    if np.any(mask):
        span = np.where(upper > lower, upper - lower, 1.0)
        mutated[mask] += rng.standard_normal(int(mask.sum())) * scale * span[mask]
    return np.clip(mutated, lower, upper)


def tournament_select(
    fitness: Sequence[float], rng: np.random.Generator, k: int = 3
) -> int:
    """Index of the best of ``k`` uniformly drawn individuals."""
    n = len(fitness)
    if n == 0:
        raise ValueError("empty population")
    contenders = rng.integers(n, size=min(k, n))
    best = int(contenders[0])
    for idx in contenders[1:]:
        if fitness[int(idx)] > fitness[best]:
            best = int(idx)
    return best


# -- population-at-a-time variants ------------------------------------------
#
# The GA's per-generation work is embarrassingly parallel across
# children, and the per-child python overhead (one rng call + one
# scan per tournament, one rng call per crossover/mutation) rivals the
# surrogate queries themselves once fitness goes batched.  These
# variants draw every child's randomness in one generator call each.
# They consume the RNG stream in a different (block-wise) order than a
# loop over the scalar operators, but remain fully deterministic per
# seed, and per-child semantics are unchanged.


def tournament_select_many(
    fitness: np.ndarray,
    rng: np.random.Generator,
    rows: np.ndarray,
    k: int = 3,
) -> np.ndarray:
    """One tournament winner per entry of ``rows``: ``(count,)`` indices.

    ``rows`` is ``np.arange(count)``, which the caller derives once per
    search.  One call for ``2 * count`` winners draws the same stream as
    two calls for ``count``, so both parents of every child come from
    one draw.  Ties go to the earliest-drawn contender, matching the
    scalar operator's strict-improvement scan.
    """
    n = len(fitness)
    if n == 0:
        raise ValueError("empty population")
    contenders = rng.integers(n, size=(len(rows), min(k, n)))
    return contenders[rows, np.argmax(fitness[contenders], axis=1)]


def weighted_average_crossover_many(
    parents_a: np.ndarray, parents_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-gene random-weighted average for a whole block of pairs."""
    r = rng.random(parents_a.shape)
    return r * parents_a + (1.0 - r) * parents_b


def gaussian_mutation_many(
    children: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    span: np.ndarray,
    rng: np.random.Generator,
    rate: float = 0.2,
    scale: float = 0.1,
) -> np.ndarray:
    """Per-gene gaussian jitter over a ``(count, n_genes)`` block,
    scaled to each gene's ``span`` (the encoder's precomputed range)."""
    mask = rng.random(children.shape) < rate
    noise = rng.standard_normal(children.shape)
    mutated = np.where(mask, children + noise * scale * span, children)
    return np.clip(mutated, lower, upper)

"""GA variation and selection operators, one individual at a time.

:meth:`~repro.ga.algorithm.GeneticAlgorithm.run` applies the same
per-child semantics to a whole generation inline, from block draws.
"""

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

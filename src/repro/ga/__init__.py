"""Real-coded genetic algorithm for configuration search (paper §3.7.2).

The GA explores raw parameter space with the paper's operators: a
uniformly random initial population within bounds, random-weighted
average crossover — per gene ``r * a + (1 - r) * b`` with ``r ~ U(0, 1)``,
interpolation, never extrapolation (the paper's worked example also
halves the average, which would shrink every child toward zero; read
as a typo) — gaussian mutation scaled to each gene's range and clipped
to bounds, and a Deb-style penalty: feasible points keep their fitness,
infeasible ones (non-integer values for integer parameters) lose
``scale * violation``, so crossover can roam between integer lattice
points and still converge onto them.  :class:`GeneticAlgorithm` runs
them inline, a generation of every lockstep search at a time.
"""

from repro.ga.encoding import ConfigurationEncoder
from repro.ga.algorithm import GAResult, GeneticAlgorithm

__all__ = [
    "ConfigurationEncoder",
    "GAResult",
    "GeneticAlgorithm",
]

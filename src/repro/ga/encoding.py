"""Gene <-> configuration encoding.

Each tuned parameter is one real-valued gene in its raw domain:
integers and floats use their natural range, categoricals use the choice
index.  Crossover produces non-integral genes; :meth:`decode` snaps to
the nearest feasible value (:meth:`snap` does the same in array space,
without building a configuration).  The GA keeps its population within
bounds, so the constraint penalty charges the integrality gap alone.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.config.parameter import (
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
    ParameterSpec,
)
from repro.config.space import Configuration, ConfigurationSpace
from repro.errors import SearchError


class ConfigurationEncoder:
    """Maps gene vectors to configurations over selected parameters."""

    def __init__(self, space: ConfigurationSpace, names: Sequence[str]):
        if not names:
            raise SearchError("encoder needs at least one parameter")
        self.space = space
        self.names: Tuple[str, ...] = tuple(names)
        self.specs: List[ParameterSpec] = [space[n] for n in self.names]
        lows, highs, integral = [], [], []
        for spec in self.specs:
            if isinstance(spec, CategoricalParameter):
                lows.append(0.0)
                highs.append(float(len(spec.choices) - 1))
                integral.append(True)
            elif isinstance(spec, IntegerParameter):
                lows.append(float(spec.low))
                highs.append(float(spec.high))
                integral.append(True)
            elif isinstance(spec, FloatParameter):
                lows.append(spec.low)
                highs.append(spec.high)
                integral.append(False)
            else:  # pragma: no cover - new parameter kinds must opt in
                raise SearchError(f"cannot encode parameter type {type(spec).__name__}")
        self.lower = np.array(lows)
        self.upper = np.array(highs)
        self.integral = np.array(integral, dtype=bool)
        self._integral_columns = np.flatnonzero(self.integral)
        #: Gene ranges for unit scaling; degenerate ranges scale by 1.
        self.span = np.where(self.upper > self.lower, self.upper - self.lower, 1.0)

    def __reduce__(self):
        # Everything else is derived from these two: pickles (state
        # blobs, fingerprints) carry them and loading rebuilds the rest.
        return type(self), (self.space, self.names)

    @property
    def n_genes(self) -> int:
        return len(self.names)

    def encode(self, config: Configuration) -> np.ndarray:
        """Genes of an existing configuration (used for seeding)."""
        genes = []
        for spec in self.specs:
            value = config[spec.name]
            if isinstance(spec, CategoricalParameter):
                genes.append(float(spec.choices.index(value)))
            else:
                genes.append(float(value))
        return np.array(genes)

    # -- decoding --------------------------------------------------------------

    def snap(self, genes: np.ndarray) -> np.ndarray:
        """Nearest feasible gene vector(s): clip to bounds, then round
        the integral genes (half to even, like :func:`round`).

        Equal to ``encode(decode(genes))`` bit for bit without the
        :class:`Configuration` round trip; ``+ 0.0`` turns the ``-0.0``
        that ``np.round`` gives small negatives into ``encode``'s ``0.0``.
        """
        clipped = np.clip(genes, self.lower, self.upper)
        return np.where(self.integral, np.round(clipped) + 0.0, clipped)

    def decode(self, genes: np.ndarray) -> Configuration:
        """Snap to the nearest feasible configuration."""
        genes = np.asarray(genes, dtype=float)
        if genes.shape != (self.n_genes,):
            raise SearchError(f"expected {self.n_genes} genes, got {genes.shape}")
        overrides = {}
        for g, spec in zip(self.snap(genes), self.specs):
            if isinstance(spec, CategoricalParameter):
                overrides[spec.name] = spec.choices[int(g)]
            elif isinstance(spec, IntegerParameter):
                overrides[spec.name] = int(g)
            else:
                overrides[spec.name] = float(g)
        return Configuration(self.space, overrides)

    def _integrality_gap(self, inside: np.ndarray) -> np.ndarray:
        """Per-row distance of *in-bounds* genes (rows on the last axis)
        from integrality, the sum over integral genes of the distance to
        the nearest integer (at most 0.5 each): what the GA charges its
        clipped population.  Only the integral columns are rounded; the
        sum is the same as over all columns' masked gaps."""
        columns = inside[..., self._integral_columns]
        return np.add.reduce(np.abs(columns - columns.round()), axis=-1)

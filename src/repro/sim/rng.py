"""Deterministic random-number plumbing.

Every stochastic component (workload generator, GA, NN initialization,
ScyllaDB tuner noise, ...) takes an explicit ``numpy.random.Generator``.
This module centralizes how independent streams are derived from a single
experiment seed so that results are reproducible end to end and components
do not perturb each other's streams.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


class SeedSequence:
    """Hands out independent, named random streams from one root seed.

    >>> seeds = SeedSequence(42)
    >>> rng_a = seeds.stream("workload")
    >>> rng_b = seeds.stream("ga")

    The same (root seed, name, index) always yields the same stream, and
    distinct names yield statistically independent streams.
    """

    def __init__(self, root_seed: int = 0):
        root = int(root_seed)
        if root < 0:
            raise ValueError(f"root seed must be non-negative, got {root}")
        self._root = root
        self._root_words = _uint32_words(root)
        self._counts: dict[str, int] = {}

    @property
    def root_seed(self) -> int:
        return self._root

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh independent generator for ``name``.

        Calling the same name repeatedly yields a *new* independent stream
        each time (indexed), so components that need several generators can
        just call again.
        """
        rng = self.peek(name)
        self.advance(name)
        return rng

    def count(self, name: str) -> int:
        """How many streams ``name`` has handed out: the next one's index."""
        return self._counts.get(name, 0)

    def advance(self, name: str) -> None:
        """Count ``name``'s next stream as handed out without building it:
        the next ``stream(name)`` returns the one after."""
        self._counts[name] = self.count(name) + 1

    def peek(self, name: str) -> np.random.Generator:
        """The generator the next ``stream(name)`` returns, without taking
        it: the count stays, so that call still hands out this stream."""
        # The entropy list ``[root, count, *code points]`` (a nameless
        # stream's code points are ``[0]``) as the uint32 array numpy
        # coerces it to: an int is its 32-bit words, low first.
        words = [*self._root_words, *_uint32_words(self.count(name)), *map(ord, name or "\0")]
        entropy = np.array(words, dtype=np.uint32)
        return np.random.default_rng(np.random.SeedSequence(entropy))


def _uint32_words(value: int) -> list:
    """A non-negative int's 32-bit words, low first (``[0]`` for 0): the
    words numpy's ``SeedSequence`` makes of it."""
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def derive_rng(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` (int, Generator, or None) into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

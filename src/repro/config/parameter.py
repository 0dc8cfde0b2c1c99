"""Typed parameter specifications.

Each parameter knows its domain, default, and how to validate / quantize /
sample values.  Three concrete kinds cover the datastore config files:
categorical (compaction strategy), integer (thread counts, sizes in MB),
and float (thresholds in [0, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ParameterSpec:
    """Base class for one tunable parameter.

    Attributes
    ----------
    name:
        The configuration-file key (e.g. ``"concurrent_writes"``).
    default:
        The value shipped in the vendor's default config.
    description:
        Human-readable explanation, surfaced in reports.
    """

    name: str
    default: Any
    description: str = ""

    # -- interface ---------------------------------------------------------

    def validate(self, value: Any) -> None:
        """Raise :class:`ConfigurationError` if ``value`` is out of domain."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniform random in-domain value."""
        raise NotImplementedError

    def grid(self, resolution: int) -> Sequence[Any]:
        """Return up to ``resolution`` representative in-domain values."""
        raise NotImplementedError

    def sweep_values(self, count: int = 4) -> Sequence[Any]:
        """Values used by the one-factor-at-a-time ANOVA sweep (§3.4.1).

        Categorical parameters test all levels; numeric ones test
        ``count`` values spanning the domain (always including min, max,
        and the default).
        """
        raise NotImplementedError

    # -- encoding for the GA / surrogate ------------------------------------

    def to_unit(self, value: Any) -> float:
        """Map an in-domain value to [0, 1] for model features / GA genes."""
        raise NotImplementedError

    @property
    def cardinality(self) -> float:
        """Number of distinct values n_i (may be inf for floats)."""
        raise NotImplementedError


@dataclass(frozen=True)
class CategoricalParameter(ParameterSpec):
    """A parameter taking one of a fixed set of labels."""

    choices: Tuple[Any, ...] = ()

    def __post_init__(self):
        if not self.choices:
            raise ConfigurationError(f"{self.name}: categorical needs choices")
        if self.default not in self.choices:
            raise ConfigurationError(
                f"{self.name}: default {self.default!r} not among choices"
            )

    def validate(self, value: Any) -> None:
        if value not in self.choices:
            raise ConfigurationError(
                f"{self.name}: {value!r} not in {list(self.choices)}"
            )

    def sample(self, rng: np.random.Generator) -> Any:
        return self.choices[int(rng.integers(len(self.choices)))]

    def grid(self, resolution: int) -> Sequence[Any]:
        return list(self.choices)

    def sweep_values(self, count: int = 4) -> Sequence[Any]:
        return list(self.choices)

    def to_unit(self, value: Any) -> float:
        self.validate(value)
        if len(self.choices) == 1:
            return 0.0
        return self.choices.index(value) / (len(self.choices) - 1)

    @property
    def cardinality(self) -> float:
        return float(len(self.choices))


@dataclass(frozen=True)
class IntegerParameter(ParameterSpec):
    """An integer parameter on a closed range [low, high]."""

    low: int = 0
    high: int = 0

    def __post_init__(self):
        if self.low > self.high:
            raise ConfigurationError(f"{self.name}: low > high")
        if not (self.low <= self.default <= self.high):
            raise ConfigurationError(
                f"{self.name}: default {self.default} outside [{self.low}, {self.high}]"
            )

    def validate(self, value: Any) -> None:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ConfigurationError(f"{self.name}: {value!r} is not an integer")
        if not (self.low <= value <= self.high):
            raise ConfigurationError(
                f"{self.name}: {value} outside [{self.low}, {self.high}]"
            )

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def grid(self, resolution: int) -> Sequence[int]:
        span = self.high - self.low
        if span + 1 <= resolution:
            return list(range(self.low, self.high + 1))
        values = np.unique(
            np.round(np.linspace(self.low, self.high, resolution)).astype(int)
        )
        return [int(v) for v in values]

    def sweep_values(self, count: int = 4) -> Sequence[int]:
        values = set(self.grid(count))
        values.update((self.low, self.high, int(self.default)))
        return sorted(values)

    def to_unit(self, value: Any) -> float:
        self.validate(value)
        if self.high == self.low:
            return 0.0
        return (value - self.low) / (self.high - self.low)

    @property
    def cardinality(self) -> float:
        return float(self.high - self.low + 1)


@dataclass(frozen=True)
class FloatParameter(ParameterSpec):
    """A continuous parameter on [low, high], quantized for grids."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        if self.low > self.high:
            raise ConfigurationError(f"{self.name}: low > high")
        if not (self.low <= self.default <= self.high):
            raise ConfigurationError(
                f"{self.name}: default {self.default} outside [{self.low}, {self.high}]"
            )

    def validate(self, value: Any) -> None:
        if not isinstance(value, (int, float, np.floating, np.integer)) or isinstance(
            value, bool
        ):
            raise ConfigurationError(f"{self.name}: {value!r} is not numeric")
        if not (self.low <= value <= self.high):
            raise ConfigurationError(
                f"{self.name}: {value} outside [{self.low}, {self.high}]"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def grid(self, resolution: int) -> Sequence[float]:
        return [float(v) for v in np.linspace(self.low, self.high, resolution)]

    def sweep_values(self, count: int = 4) -> Sequence[float]:
        values = list(np.linspace(self.low, self.high, count))
        values.append(float(self.default))
        return sorted(set(round(v, 10) for v in values))

    def to_unit(self, value: Any) -> float:
        self.validate(value)
        if self.high == self.low:
            return 0.0
        return (float(value) - self.low) / (self.high - self.low)

    @property
    def cardinality(self) -> float:
        return float("inf")

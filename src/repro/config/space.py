"""Configuration spaces and configurations.

A :class:`ConfigurationSpace` is an ordered collection of
:class:`~repro.config.parameter.ParameterSpec`; a :class:`Configuration`
is an immutable assignment of values, defaulting unset parameters — the
paper's shorthand ``C = {v1=5, v3=9}`` (§3.2).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.config.parameter import ParameterSpec
from repro.errors import ConfigurationError


class Configuration(Mapping[str, Any]):
    """Immutable parameter assignment within a space.

    Behaves as a mapping from parameter name to value; every parameter of
    the owning space has a value (explicit or default).
    """

    __slots__ = ("_space", "_values", "_hash", "_fingerprint")

    def __init__(self, space: "ConfigurationSpace", overrides: Optional[Mapping[str, Any]] = None):
        overrides = dict(overrides or {})
        values: Dict[str, Any] = {}
        for spec in space.parameters:
            value = overrides.pop(spec.name, spec.default)
            spec.validate(value)
            values[spec.name] = value
        if overrides:
            unknown = ", ".join(sorted(overrides))
            raise ConfigurationError(f"unknown parameters: {unknown}")
        self._space = space
        self._values = values
        self._hash: Optional[int] = None
        self._fingerprint: Optional[str] = None

    def __getstate__(self):
        # The two cached digests stay out of pickles: ``hash()`` is salted
        # per process, and a pickle must not depend on what was asked.
        return self._space, self._values

    def __setstate__(self, state):
        self._space, self._values = state
        self._hash = self._fingerprint = None

    @property
    def space(self) -> "ConfigurationSpace":
        return self._space

    def __getitem__(self, name: str) -> Any:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._values.items())))
        return self._hash

    def with_updates(self, **updates: Any) -> "Configuration":
        """Return a copy with some values replaced."""
        merged = dict(self._values)
        merged.update(updates)
        return Configuration(self._space, merged)

    def non_default_items(self) -> Dict[str, Any]:
        """The paper's shorthand: only values differing from defaults."""
        return {
            name: value
            for name, value in self._values.items()
            if value != self._space[name].default
        }

    def to_vector(self, names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Encode (a subset of) the configuration as unit-interval floats."""
        names = list(names) if names is not None else self._space.names
        return np.array(
            [self._space[n].to_unit(self._values[n]) for n in names], dtype=float
        )

    def fingerprint(self) -> str:
        """Stable 8-hex-digit digest of the full parameter assignment.

        Two configurations fingerprint equal iff they are ``==``; the
        digest is stable across processes and platforms (no ``hash()``
        randomization), which is what lets the actuation layer compare
        intended-vs-applied configs per node and report drift compactly.
        """
        if self._fingerprint is None:
            digest = hashlib.sha1(repr(sorted(self._values.items())).encode("utf-8"))
            self._fingerprint = digest.hexdigest()[:8]
        return self._fingerprint

    def __repr__(self) -> str:
        nd = self.non_default_items()
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(nd.items())) or "defaults"
        return f"Configuration({inner})"


class ConfigurationSpace:
    """Ordered, named collection of parameters with helpers for sampling.

    Provides the operations the Rafiki pipeline needs: default config,
    uniform random configs, grids over a subset of "key parameters",
    vector encoding/decoding for the surrogate and the GA, and the total
    cardinality from §3.2 (``prod n_i``).
    """

    def __init__(self, name: str, parameters: Iterable[ParameterSpec]):
        self.name = name
        self._params: List[ParameterSpec] = list(parameters)
        self._by_name: Dict[str, ParameterSpec] = {}
        for p in self._params:
            if p.name in self._by_name:
                raise ConfigurationError(f"duplicate parameter {p.name!r}")
            self._by_name[p.name] = p
        if not self._params:
            raise ConfigurationError("a configuration space needs parameters")

    # -- container protocol ---------------------------------------------------

    @property
    def parameters(self) -> Sequence[ParameterSpec]:
        return tuple(self._params)

    @property
    def names(self) -> List[str]:
        return [p.name for p in self._params]

    def __getitem__(self, name: str) -> ParameterSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown parameter {name!r} in space {self.name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._params)

    # -- subsetting ---------------------------------------------------------------

    def subspace(self, names: Sequence[str]) -> "ConfigurationSpace":
        """Restrict to the named parameters (the ANOVA 'key parameters')."""
        return ConfigurationSpace(
            f"{self.name}[{','.join(names)}]", [self[n] for n in names]
        )

    # -- construction -----------------------------------------------------------

    def default_configuration(self) -> Configuration:
        return Configuration(self, {})

    def configuration(self, **overrides: Any) -> Configuration:
        return Configuration(self, overrides)

    def sample_configuration(
        self,
        rng: np.random.Generator,
        names: Optional[Sequence[str]] = None,
    ) -> Configuration:
        """Uniform random configuration; only ``names`` vary if given."""
        names = list(names) if names is not None else self.names
        overrides = {n: self[n].sample(rng) for n in names}
        return Configuration(self, overrides)

    def grid(
        self, names: Sequence[str], resolution: int = 4
    ) -> Iterator[Configuration]:
        """Cartesian grid over ``names`` (others at default)."""
        axes = [[(n, v) for v in self[n].grid(resolution)] for n in names]
        for combo in itertools.product(*axes):
            yield Configuration(self, dict(combo))

    def coverage_sample(
        self,
        rng: np.random.Generator,
        names: Sequence[str],
        count: int,
    ) -> List[Configuration]:
        """Sampling plan from §3.5: for each key parameter, its min, max,
        and default each occur at least once; remaining configs random.

        May return fewer than ``count`` configurations when the subspace
        is too small to hold that many distinct points.
        """
        configs: List[Configuration] = [self.default_configuration()]
        seen = set(configs)
        for n in names:
            spec = self[n]
            sweep = spec.sweep_values(4)
            for value in (sweep[0], sweep[-1]):
                cand = Configuration(self, {n: value})
                if cand not in seen:
                    seen.add(cand)
                    configs.append(cand)
        attempts_left = 1000 + 100 * count
        while len(configs) < count and attempts_left > 0:
            attempts_left -= 1
            cand = self.sample_configuration(rng, names)
            if cand not in seen:
                seen.add(cand)
                configs.append(cand)
        return configs[:count]

    # -- size -------------------------------------------------------------------

    def cardinality(self, names: Optional[Sequence[str]] = None, float_resolution: int = 10) -> float:
        """Total configuration count ``prod n_i`` (§3.2).

        Continuous parameters are counted at ``float_resolution`` levels,
        matching the paper's quantization argument.
        """
        names = list(names) if names is not None else self.names
        total = 1.0
        for n in names:
            card = self[n].cardinality
            total *= float_resolution if math.isinf(card) else card
        return total

    def __repr__(self) -> str:
        return f"ConfigurationSpace({self.name!r}, {len(self)} params)"

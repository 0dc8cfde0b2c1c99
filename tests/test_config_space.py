import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config.parameter import FloatParameter, IntegerParameter
from repro.config.space import Configuration, ConfigurationSpace
from repro.errors import ConfigurationError


@pytest.fixture
def tiny_space():
    return ConfigurationSpace(
        "tiny",
        [
            IntegerParameter(name="a", default=2, low=0, high=10),
            FloatParameter(name="b", default=0.5, low=0.0, high=1.0),
            IntegerParameter(name="c", default=1, low=1, high=3),
        ],
    )


class TestConfigurationSpace:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ConfigurationSpace("empty", [])

    def test_rejects_duplicates(self):
        p = IntegerParameter(name="a", default=0, low=0, high=1)
        with pytest.raises(ConfigurationError):
            ConfigurationSpace("dup", [p, p])

    def test_lookup_by_name(self, tiny_space):
        assert tiny_space["a"].default == 2

    def test_unknown_name_raises(self, tiny_space):
        with pytest.raises(ConfigurationError):
            tiny_space["zzz"]

    def test_contains(self, tiny_space):
        assert "a" in tiny_space
        assert "zzz" not in tiny_space

    def test_subspace(self, tiny_space):
        sub = tiny_space.subspace(["a", "c"])
        assert sub.names == ["a", "c"]

    def test_cardinality(self, tiny_space):
        # a: 11, b: quantized to 10, c: 3
        assert tiny_space.cardinality() == pytest.approx(11 * 10 * 3)

    def test_grid_over_subset(self, tiny_space):
        configs = list(tiny_space.grid(["a", "c"], resolution=2))
        assert len(configs) == 4
        assert all(cfg["b"] == 0.5 for cfg in configs)

    def test_sample_deterministic(self, tiny_space):
        a = tiny_space.sample_configuration(np.random.default_rng(9))
        b = tiny_space.sample_configuration(np.random.default_rng(9))
        assert a == b

    def test_coverage_sample_includes_extremes(self, tiny_space):
        rng = np.random.default_rng(0)
        configs = tiny_space.coverage_sample(rng, ["a"], count=8)
        values = {cfg["a"] for cfg in configs}
        assert {0, 10, 2} <= values
        assert len(configs) == 8

    def test_coverage_sample_small_subspace_does_not_hang(self, tiny_space):
        """Asking for more configs than the subspace holds returns what
        exists instead of spinning forever."""
        rng = np.random.default_rng(0)
        configs = tiny_space.coverage_sample(rng, ["c"], count=50)
        assert len(configs) <= 3  # c has only 3 values
        assert len(set(configs)) == len(configs)

    def test_coverage_sample_unique(self, tiny_space):
        rng = np.random.default_rng(0)
        configs = tiny_space.coverage_sample(rng, ["a", "c"], count=15)
        assert len(set(configs)) == len(configs)


class TestConfiguration:
    def test_defaults_fill_in(self, tiny_space):
        cfg = Configuration(tiny_space, {"a": 5})
        assert cfg["b"] == 0.5
        assert cfg["c"] == 1

    def test_unknown_override_rejected(self, tiny_space):
        with pytest.raises(ConfigurationError):
            Configuration(tiny_space, {"zzz": 1})

    def test_invalid_value_rejected(self, tiny_space):
        with pytest.raises(ConfigurationError):
            Configuration(tiny_space, {"a": 999})

    def test_mapping_protocol(self, tiny_space):
        cfg = tiny_space.default_configuration()
        assert len(cfg) == 3
        assert set(cfg) == {"a", "b", "c"}

    def test_equality_and_hash(self, tiny_space):
        a = Configuration(tiny_space, {"a": 5})
        b = Configuration(tiny_space, {"a": 5})
        c = Configuration(tiny_space, {"a": 6})
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_with_updates(self, tiny_space):
        cfg = tiny_space.default_configuration().with_updates(a=9)
        assert cfg["a"] == 9
        assert cfg["b"] == 0.5

    def test_non_default_items(self, tiny_space):
        cfg = Configuration(tiny_space, {"a": 5, "b": 0.5})
        assert cfg.non_default_items() == {"a": 5}

    def test_repr_shows_overrides(self, tiny_space):
        assert "a=5" in repr(Configuration(tiny_space, {"a": 5}))
        assert "defaults" in repr(tiny_space.default_configuration())


DUMP = """
import pickle, sys
from repro.config import cassandra_space
cfg = cassandra_space().configuration(concurrent_reads=64)
hash(cfg), cfg.fingerprint()
sys.stdout.buffer.write(pickle.dumps(cfg))
"""

LOAD = """
import pickle, sys
from repro.config import cassandra_space
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = cassandra_space().configuration(concurrent_reads=64)
print(loaded == fresh, hash(loaded) == hash(fresh), loaded in {fresh},
      {fresh: 1}.get(loaded), loaded.fingerprint() == fresh.fingerprint())
"""


class TestConfigurationPickle:
    """A configuration's cached digests are derived state: ``hash()`` is
    salted per process (spawn and forkserver pool workers each draw
    their own salt), so a pickle carries only the space and the values."""

    @staticmethod
    def _python(code, hash_seed, stdin=None):
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-c", code], input=stdin, env=env,
            capture_output=True, check=True,
        )
        return done.stdout

    def test_loads_under_another_hash_seed(self):
        blob = self._python(DUMP, "1")
        assert self._python(LOAD, "2", stdin=blob).split() == [b"True"] * 3 + [
            b"1", b"True"
        ]

    def test_pickle_is_unchanged_by_hash_and_fingerprint(self, tiny_space):
        cfg = Configuration(tiny_space, {"a": 5})
        blob = pickle.dumps(cfg)
        hash(cfg)
        assert cfg.fingerprint() is cfg.fingerprint()    # computed once
        assert pickle.dumps(cfg) == blob
        clone = pickle.loads(blob)
        assert clone == cfg and hash(clone) == hash(cfg)
        assert clone.fingerprint() == cfg.fingerprint()

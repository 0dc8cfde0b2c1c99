import numpy as np
import pytest

from repro.sim.rng import SeedSequence, derive_rng
from tests.oracles import list_entropy_stream


class TestSeedSequence:
    def test_same_seed_same_stream(self):
        a = SeedSequence(7).stream("x")
        b = SeedSequence(7).stream("x")
        assert a.integers(1000) == b.integers(1000)

    def test_different_names_differ(self):
        seeds = SeedSequence(7)
        a = seeds.stream("alpha")
        b = seeds.stream("beta")
        assert list(a.integers(1000, size=8)) != list(b.integers(1000, size=8))

    def test_repeated_name_gives_new_stream(self):
        seeds = SeedSequence(7)
        a = seeds.stream("x")
        b = seeds.stream("x")
        assert list(a.integers(1000, size=8)) != list(b.integers(1000, size=8))

    def test_different_root_seeds_differ(self):
        a = SeedSequence(1).stream("x")
        b = SeedSequence(2).stream("x")
        assert list(a.integers(1000, size=8)) != list(b.integers(1000, size=8))

    def test_root_seed_property(self):
        assert SeedSequence(42).root_seed == 42

    @pytest.mark.parametrize("root", [0, 2017, 2**32 - 1, 2**32, 2**40])
    @pytest.mark.parametrize("count", [0, 1, 7])
    @pytest.mark.parametrize("name", ["", "ga", "config-sampling", "tenant-ü€😀"])
    def test_stream_is_the_list_entropy_stream(self, root, count, name):
        """The entropy built as one uint32 array is numpy's coercion of
        the list form, word for word: the same generator state."""
        seeds = SeedSequence(root)
        for _ in range(count):
            seeds.advance(name)
        want = list_entropy_stream(root, count, name).bit_generator.state
        assert seeds.peek(name).bit_generator.state == want
        assert seeds.stream(name).bit_generator.state == want
        assert seeds.count(name) == count + 1

    @pytest.mark.parametrize("root", [-1, -(2**40)])
    def test_negative_root_rejected(self, root):
        with pytest.raises(ValueError, match=f"non-negative, got {root}"):
            SeedSequence(root)


class TestDeriveRng:
    def test_none_gives_generator(self):
        assert isinstance(derive_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        assert derive_rng(5).integers(10**6) == derive_rng(5).integers(10**6)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert derive_rng(gen) is gen

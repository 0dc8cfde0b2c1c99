import numpy as np

from repro.sim.rng import SeedSequence, derive_rng


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


class TestDeriveRng:
    def test_none_gives_generator(self):
        assert isinstance(derive_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        assert derive_rng(5).integers(10**6) == derive_rng(5).integers(10**6)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert derive_rng(gen) is gen

import numpy as np
import pytest

from repro.config.parameter import (
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
)
from repro.errors import ConfigurationError


@pytest.fixture
def cat():
    return CategoricalParameter(name="cm", default="a", choices=("a", "b", "c"))


@pytest.fixture
def integer():
    return IntegerParameter(name="cw", default=32, low=8, high=96)


@pytest.fixture
def flt():
    return FloatParameter(name="mt", default=0.11, low=0.1, high=0.5)


class TestCategorical:
    def test_validate_accepts_choices(self, cat):
        cat.validate("b")

    def test_validate_rejects_unknown(self, cat):
        with pytest.raises(ConfigurationError):
            cat.validate("z")

    def test_default_must_be_choice(self):
        with pytest.raises(ConfigurationError):
            CategoricalParameter(name="x", default="z", choices=("a",))

    def test_needs_choices(self):
        with pytest.raises(ConfigurationError):
            CategoricalParameter(name="x", default="a", choices=())

    def test_grid_is_all_choices(self, cat):
        assert list(cat.grid(10)) == ["a", "b", "c"]

    def test_sweep_is_all_choices(self, cat):
        assert list(cat.sweep_values()) == ["a", "b", "c"]

    def test_unit_round_trip(self, cat):
        """Choice ``i`` of ``n`` sits at ``i / (n - 1)``."""
        for i, c in enumerate(cat.choices):
            u = cat.to_unit(c)
            assert cat.choices[round(u * (len(cat.choices) - 1))] == c
        assert [cat.to_unit(c) for c in cat.choices] == [0.0, 0.5, 1.0]

    def test_cardinality(self, cat):
        assert cat.cardinality == 3

    def test_sample_in_domain(self, cat):
        rng = np.random.default_rng(0)
        assert all(cat.sample(rng) in cat.choices for _ in range(20))


class TestInteger:
    def test_validate_bounds(self, integer):
        integer.validate(8)
        integer.validate(96)
        with pytest.raises(ConfigurationError):
            integer.validate(7)
        with pytest.raises(ConfigurationError):
            integer.validate(97)

    def test_rejects_non_integer(self, integer):
        with pytest.raises(ConfigurationError):
            integer.validate(10.5)
        with pytest.raises(ConfigurationError):
            integer.validate(True)

    def test_default_in_range_enforced(self):
        with pytest.raises(ConfigurationError):
            IntegerParameter(name="x", default=100, low=0, high=10)

    def test_low_le_high(self):
        with pytest.raises(ConfigurationError):
            IntegerParameter(name="x", default=0, low=5, high=1)

    def test_grid_respects_resolution(self, integer):
        grid = integer.grid(4)
        assert len(grid) == 4
        assert grid[0] == 8 and grid[-1] == 96

    def test_grid_small_domain_enumerates(self):
        p = IntegerParameter(name="x", default=1, low=0, high=3)
        assert list(p.grid(10)) == [0, 1, 2, 3]

    def test_sweep_includes_extremes_and_default(self, integer):
        sweep = integer.sweep_values(4)
        assert 8 in sweep and 96 in sweep and 32 in sweep

    def test_unit_round_trip(self, integer):
        for v in (8, 32, 96):
            assert round(8 + integer.to_unit(v) * (96 - 8)) == v
        assert (integer.to_unit(8), integer.to_unit(96)) == (0.0, 1.0)

    def test_cardinality(self, integer):
        assert integer.cardinality == 89


class TestFloat:
    def test_validate_bounds(self, flt):
        flt.validate(0.1)
        flt.validate(0.5)
        with pytest.raises(ConfigurationError):
            flt.validate(0.6)

    def test_rejects_non_numeric(self, flt):
        with pytest.raises(ConfigurationError):
            flt.validate("0.2")

    def test_grid_linspace(self, flt):
        grid = flt.grid(5)
        assert len(grid) == 5
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(0.5)

    def test_sweep_includes_default(self, flt):
        assert any(abs(v - 0.11) < 1e-9 for v in flt.sweep_values(4))

    def test_unit_round_trip(self, flt):
        assert 0.1 + flt.to_unit(0.3) * (0.5 - 0.1) == pytest.approx(0.3)
        assert (flt.to_unit(0.1), flt.to_unit(0.5)) == (0.0, 1.0)

    def test_cardinality_infinite(self, flt):
        assert flt.cardinality == float("inf")

    def test_sample_in_domain(self, flt):
        rng = np.random.default_rng(1)
        for _ in range(20):
            flt.validate(flt.sample(rng))

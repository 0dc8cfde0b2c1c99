import numpy as np
import pytest

from repro.config.parameter import FloatParameter, IntegerParameter
from repro.config.space import ConfigurationSpace
from repro.errors import SearchError
from repro.ga.algorithm import GeneticAlgorithm
from repro.ga.encoding import ConfigurationEncoder
from tests.oracles import lockstep_fitness


@pytest.fixture
def quad_space():
    return ConfigurationSpace(
        "quad",
        [
            FloatParameter(name="x", default=0.0, low=-5.0, high=5.0),
            FloatParameter(name="y", default=0.0, low=-5.0, high=5.0),
        ],
    )


@pytest.fixture
def mixed_space():
    return ConfigurationSpace(
        "mixed",
        [
            IntegerParameter(name="n", default=0, low=-10, high=10),
            FloatParameter(name="x", default=0.0, low=-5.0, high=5.0),
        ],
    )


class TestPenalizedFitness:
    """The Deb penalty: ``raw - scale * violation`` for infeasible rows,
    ``raw`` itself for feasible ones."""

    def test_feasible_passthrough(self, quad_space):
        """A space of float genes has no infeasible in-bounds row, so no
        penalty scale changes one bit of the run."""
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        fitness = lockstep_fitness(lambda g: float(-((g - 1.5) ** 2).sum()), per_row=True)
        results = [
            GeneticAlgorithm(
                encoder, fitness, generations=8, penalty_scale=scale
            ).run(seed=3)
            for scale in (None, 0.0, 1e6)
        ]
        for other in results[1:]:
            assert other.best_configuration == results[0].best_configuration
            assert other.history == results[0].history

    def test_violation_penalized(self, mixed_space):
        """On a flat raw fitness the penalty alone ranks the rows: the
        elites bred into generation 1 are generation 0's two rows with
        the smallest integrality gaps, the smaller first."""
        encoder = ConfigurationEncoder(mixed_space, ["n", "x"])
        seen = []

        def flat(batch, mask):
            seen.append(batch[mask][:8].copy())
            return np.zeros(np.count_nonzero(mask))

        GeneticAlgorithm(encoder, flat, population_size=8, generations=1, penalty_scale=1.0).run(
            seed=4
        )
        first, second = seen[0], seen[1]
        gaps = np.abs(first[:, 0] - np.round(first[:, 0]))
        assert second[:2].tobytes() == first[np.argsort(gaps)[:2]].tobytes()


class TestGeneticAlgorithm:
    def test_finds_continuous_optimum(self, quad_space):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])

        def fitness(genes):
            return -((genes[0] - 2.0) ** 2) - (genes[1] + 1.0) ** 2

        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(fitness, per_row=True),
            population_size=30, generations=60,
        )
        result = ga.run(seed=0)
        assert result.best_configuration["x"] == pytest.approx(2.0, abs=0.3)
        assert result.best_configuration["y"] == pytest.approx(-1.0, abs=0.3)

    def test_integer_parameter_feasible_result(self, mixed_space):
        encoder = ConfigurationEncoder(mixed_space, ["n", "x"])

        def fitness(genes):
            return -((genes[0] - 3.3) ** 2) - genes[1] ** 2

        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(fitness, per_row=True),
            population_size=30, generations=60,
        )
        result = ga.run(seed=1)
        assert isinstance(result.best_configuration["n"], int)
        assert result.best_configuration["n"] == 3  # nearest feasible to 3.3

    def test_multimodal_escapes_local_optimum(self, quad_space):
        """The paper's motivation for GA over greedy: local maxima."""
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])

        def fitness(genes):
            x, y = genes
            # Global max at (4, 4) with a decoy at (-3, -3).
            good = 10.0 * np.exp(-((x - 4) ** 2 + (y - 4) ** 2))
            decoy = 6.0 * np.exp(-((x + 3) ** 2 + (y + 3) ** 2))
            return float(good + decoy)

        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(fitness, per_row=True),
            population_size=60, generations=80,
        )
        result = ga.run(seed=2)
        assert result.best_configuration["x"] > 2.0

    def test_evaluation_budget_matches_paper_scale(self, quad_space):
        """§4.8: ~3,350 surrogate calls per search."""
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(lambda g: float(-(g**2).sum()), per_row=True),
            stagnation_limit=10**9
        )
        result = ga.run(seed=0)
        assert 1_000 < result.evaluations < 8_000

    def test_history_monotone(self, quad_space):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(lambda g: float(-(g**2).sum()), per_row=True),
            generations=20,
        )
        result = ga.run(seed=3)
        assert all(b >= a - 1e-9 for a, b in zip(result.history, result.history[1:]))

    def test_early_stop_on_stagnation(self, quad_space):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(lambda g: 1.0, per_row=True),
            generations=500, stagnation_limit=5
        )
        result = ga.run(seed=4)
        assert result.generations < 500

    def test_seeded_initial_population(self, quad_space):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])

        def fitness(genes):
            return -((genes[0] - 2.0) ** 2) - genes[1] ** 2

        seed_cfg = quad_space.configuration(x=2.0, y=0.0)
        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(fitness, per_row=True),
            population_size=10, generations=3,
        )
        result = ga.run(seed=5, initial=[encoder.encode(seed_cfg)])
        assert result.best_fitness == pytest.approx(0.0, abs=0.1)

    @pytest.mark.parametrize("bad", [[2.0], [2.0, 0.0, 1.0], [[2.0, 0.0]]])
    def test_initial_genes_of_wrong_shape_rejected(self, quad_space, bad):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        calls = []
        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(lambda g: calls.append(1) or 0.0, per_row=True),
            population_size=10, generations=3
        )
        # A one-gene seed would otherwise broadcast silently over a row.
        with pytest.raises(SearchError, match="initial genes"):
            ga.run(seed=5, initial=[np.array(bad)])
        assert not calls  # rejected up front, before any evaluation

    @pytest.mark.parametrize(
        "bad", [[5.5, 0.0], [0.0, -5.0000001], [np.nan, 0.0], [np.inf, 0.0]]
    )
    def test_initial_genes_out_of_bounds_rejected(self, quad_space, bad):
        """Elitism would carry an out-of-bounds seed through every
        generation; ``encode(Configuration)`` cannot produce one."""
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        calls = []
        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(lambda g: calls.append(1) or 0.0, per_row=True),
            population_size=10, generations=3
        )
        with pytest.raises(SearchError, match="within the encoder's bounds"):
            ga.run(seed=5, initial=[np.array([1.0, 1.0]), np.array(bad)])
        assert not calls  # rejected up front, before any evaluation
        # The bounds themselves are inside.
        ga.run(seed=5, initial=[encoder.lower, encoder.upper])

    def test_deterministic_per_seed(self, quad_space):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])

        def fitness(genes):
            return float(-(genes**2).sum())

        a = GeneticAlgorithm(
            encoder, lockstep_fitness(fitness, per_row=True),
            generations=10,
        ).run(seed=7)
        b = GeneticAlgorithm(
            encoder, lockstep_fitness(fitness, per_row=True),
            generations=10,
        ).run(seed=7)
        assert a.best_fitness == b.best_fitness
        assert a.best_configuration == b.best_configuration

    def test_parameter_validation(self, quad_space):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        with pytest.raises(SearchError):
            GeneticAlgorithm(
                encoder, lockstep_fitness(lambda g: 0.0, per_row=True),
                population_size=2,
            )
        with pytest.raises(SearchError):
            GeneticAlgorithm(encoder, lockstep_fitness(lambda g: 0.0, per_row=True), generations=0)
        with pytest.raises(SearchError):
            GeneticAlgorithm(encoder, lockstep_fitness(lambda g: 0.0, per_row=True), elites=100)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(stagnation_limit=0), "stagnation_limit"),
            (dict(stagnation_limit=-2), "stagnation_limit"),
            (dict(mutation_rate=-3), "mutation_rate"),
            (dict(mutation_rate=1.5), "mutation_rate"),
            (dict(mutation_rate=float("nan")), "mutation_rate"),
            (dict(mutation_scale=-1), "mutation_scale"),
            (dict(mutation_scale=float("nan")), "mutation_scale"),
            (dict(mutation_scale=float("inf")), "mutation_scale"),
            (dict(penalty_scale=-1.0), "penalty_scale"),
            (dict(penalty_scale=float("nan")), "penalty_scale"),
            (dict(penalty_scale=float("inf")), "penalty_scale"),
        ],
    )
    def test_rate_scale_and_stagnation_validated(self, quad_space, kwargs, message):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        with pytest.raises(SearchError, match=message):
            GeneticAlgorithm(encoder, lockstep_fitness(lambda g: 0.0, per_row=True), **kwargs)

    def test_boundary_values_accepted(self, quad_space):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        for kwargs in (
            dict(stagnation_limit=1),
            dict(mutation_rate=0.0, mutation_scale=0.0),
            dict(mutation_rate=1.0),
            dict(penalty_scale=0.0),
        ):
            result = GeneticAlgorithm(
                encoder, lockstep_fitness(lambda g: float(-(g**2).sum()), per_row=True),
                generations=3, **kwargs
            ).run(seed=0)
            assert result.generations >= 1

    @pytest.mark.parametrize(
        "scores",
        [
            [np.nan, 1.0],
            [np.inf, 1.0],
            [np.inf, -np.inf],
            [np.inf, np.inf],
        ],
        ids=["nan", "inf", "both-infs", "all-inf"],
    )
    def test_non_finite_initial_spread_rejected(self, mixed_space, scores):
        """With no ``penalty_scale`` the scale is generation 0's fitness
        spread; a spread that is not finite has no scale to give, and the
        penalty subtracts ``scale * gap`` from every row."""
        encoder = ConfigurationEncoder(mixed_space, ["n", "x"])
        values = np.resize(np.array(scores), 9)

        def fitness(matrix: np.ndarray) -> np.ndarray:
            return values[: len(matrix)].copy()

        ga = GeneticAlgorithm(
            encoder, lockstep_fitness(fitness), population_size=8, generations=3
        )
        with pytest.raises(SearchError, match="spread"):
            ga.run(seed=0)


class TestLockstep:
    """``run_lockstep``: S searches a generation at a time, each the run
    its seed gives alone (``run`` is the S = 1 case)."""

    @pytest.mark.parametrize("n_searches", [1, 2, 5])
    def test_each_search_is_its_run_alone(self, mixed_space, n_searches):
        encoder = ConfigurationEncoder(mixed_space, ["n", "x"])

        def fitness(genes):
            return -((genes[0] - 3.3) ** 2) - genes[1] ** 2

        def make():
            return GeneticAlgorithm(
                encoder, lockstep_fitness(fitness, per_row=True),
                population_size=10, generations=30, stagnation_limit=3
            )

        ga = make()
        together = ga.run_lockstep(list(range(n_searches)))
        alone = [make().run(seed=seed) for seed in range(n_searches)]
        for got, want in zip(together, alone):
            assert got.best_configuration == want.best_configuration
            assert (got.best_fitness, got.evaluations, got.generations, got.history) == (
                want.best_fitness, want.evaluations, want.generations, want.history
            )
        assert sum(got.evaluations for got in together) == sum(
            want.evaluations for want in alone
        )

    def test_sizes_checked(self, quad_space):
        encoder = ConfigurationEncoder(quad_space, ["x", "y"])
        ga = GeneticAlgorithm(encoder, lockstep_fitness(lambda g: 0.0, per_row=True), generations=2)
        with pytest.raises(SearchError, match="at least one search"):
            ga.run_lockstep([])

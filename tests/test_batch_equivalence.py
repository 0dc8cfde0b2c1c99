"""Batch-vs-scalar equivalence of the vectorized search stack.

The evaluation stack (``features_batch``/``violation_batch``,
``predict_mean_std``, the GA's ``fitness_batch_fn``, the optimizer's
population-at-a-time fitness, the chunked baseline searchers) must be
*numerically identical* to scoring one row at a time: the inference
forward pass is row-stable by construction (einsum contraction +
sequential member accumulation), so scoring a row alone or inside a
batch gives the same bits.  These tests pin that contract.

The ensemble runs all members through one stacked ``einsum`` per layer
(wide layers rows-innermost), the GA keeps its population as one
in-bounds matrix, scores it with the previous generation's snapped
winner in one surrogate call and books that generation afterwards; the
per-member ``forward_rows`` walk, the per-row fitness closure, the
``decode -> encode`` round trip and the score-every-winner-at-once loop
they replaced are the oracles (``tests.oracles.oracle_mean_std``,
``scalar_fitness`` and ``reference_ga_run``, ``encode(decode(g))``, the
``random_genes`` row stream).
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.config.parameter import FloatParameter, IntegerParameter
from repro.config.space import ConfigurationSpace
from repro.core.rafiki import Rafiki
from repro.core.search import ConfigurationOptimizer, GreedySearch, RandomSearch
from repro.core.surrogate import SurrogateModel
from repro.datastore import CassandraLike
from repro.ga.algorithm import GeneticAlgorithm
from repro.ga.encoding import ConfigurationEncoder
from repro.ml.ensemble import EnsembleConfig, NetworkEnsemble
from repro.ml.network import FeedForwardNetwork
from repro.runtime.events import EventBus
from repro.sim.rng import derive_rng
from repro.workload.spec import WorkloadSpec
from tests.oracles import oracle_mean_std, reference_ga_run, scalar_fitness

PARAMS = list(CASSANDRA_KEY_PARAMETERS)
SPACE = cassandra_space()
ENCODER = ConfigurationEncoder(SPACE, PARAMS)
#: Integer genes with negative lows: rounding can produce ``-0.0`` here.
SIGNED_ENCODER = ConfigurationEncoder(
    ConfigurationSpace(
        "signed",
        [
            IntegerParameter(name="n", default=0, low=-10, high=10),
            FloatParameter(name="x", default=0.0, low=-5.0, high=5.0),
            IntegerParameter(name="k", default=3, low=-2, high=7),
        ],
    ),
    ["n", "x", "k"],
)


def gene_matrices(max_rows: int = 64):
    """Random (n, n_genes) matrices, including out-of-bounds genes."""
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda n: st.integers(min_value=0, max_value=2**31 - 1).map(
            lambda s: np.random.default_rng(s).uniform(
                ENCODER.lower - 3.0, ENCODER.upper + 3.0, size=(n, ENCODER.n_genes)
            )
        )
    )


class TestEncoderBatchEquivalence:
    @given(genes=gene_matrices())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_features_batch_matches_rows_bitwise(self, genes):
        batch = ENCODER.features_batch(genes, 0.42)
        for i in range(genes.shape[0]):
            assert np.array_equal(batch[i], ENCODER.features(genes[i], 0.42))

    @given(genes=gene_matrices())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_violation_batch_matches_rows_bitwise(self, genes):
        batch = ENCODER.violation_batch(genes)
        for i in range(genes.shape[0]):
            assert batch[i] == ENCODER.violation(genes[i])

    @pytest.mark.parametrize("encoder", [ENCODER, SIGNED_ENCODER], ids=["cassandra", "signed"])
    @given(
        n_rows=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_in_bounds_violation_is_the_integrality_gap_bitwise(self, encoder, n_rows, seed):
        """What the GA charges its in-bounds population: the bound terms
        of the full violation sum to an exact 0.0, on the bounds too."""
        rng = np.random.default_rng(seed)
        genes = rng.uniform(encoder.lower, encoder.upper, size=(n_rows, encoder.n_genes))
        edge = rng.random(genes.shape)
        genes = np.where(edge < 0.1, encoder.lower, np.where(edge > 0.9, encoder.upper, genes))
        gap = encoder._integrality_gap(genes)
        assert gap.tobytes() == encoder.violation_batch(genes).tobytes()
        # ... and clipping them again, as every feature row used to, moves nothing.
        assert np.clip(genes, encoder.lower, encoder.upper).tobytes() == genes.tobytes()

    def test_row_count_validated(self):
        from repro.errors import SearchError

        with pytest.raises(SearchError):
            ENCODER.features_batch(np.zeros((3, ENCODER.n_genes + 1)), 0.5)
        with pytest.raises(SearchError):  # a matrix, not one gene vector
            ENCODER.features_batch(np.zeros(ENCODER.n_genes), 0.5)
        with pytest.raises(SearchError):
            ENCODER.violation_batch(np.zeros((3, ENCODER.n_genes + 1)))

    @pytest.mark.parametrize("encoder", [ENCODER, SIGNED_ENCODER], ids=["cassandra", "signed"])
    @given(
        n_rows=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_snap_matches_decode_encode_round_trip_bitwise(self, encoder, n_rows, seed):
        """Out-of-bounds genes, exact half-integers (both round half to
        even) and the sign of zero included."""
        rng = np.random.default_rng(seed)
        genes = rng.uniform(
            encoder.lower - 3.0, encoder.upper + 3.0, size=(n_rows, encoder.n_genes)
        )
        halves = rng.random(genes.shape) < 0.4
        genes[halves] = np.floor(genes[halves]) + 0.5
        genes[rng.random(genes.shape) < 0.1] = -0.0
        snapped = encoder.snap(genes)
        for i in range(n_rows):
            oracle = encoder.encode(encoder.decode(genes[i]))
            assert snapped[i].tobytes() == oracle.tobytes()
            assert encoder.snap(genes[i]).tobytes() == oracle.tobytes()
            assert encoder.violation(snapped[i]) == 0.0

    def test_encoder_pickles_as_its_constructor_arguments(self):
        clone = pickle.loads(pickle.dumps(ENCODER))
        assert clone.names == ENCODER.names
        for attr in ("lower", "upper", "integral", "span"):
            assert np.array_equal(getattr(clone, attr), getattr(ENCODER, attr))


def make_ensemble(
    n_features: int, n_networks: int = 5, seed: int = 0, hidden=(14, 4)
) -> NetworkEnsemble:
    """A prediction-ready ensemble without the training cost: random
    member weights, scalers fitted on random data."""
    rng = np.random.default_rng(seed)
    ens = NetworkEnsemble(EnsembleConfig(n_networks=n_networks))
    ens.x_scaler.fit(rng.standard_normal((32, n_features)))
    ens.y_scaler.fit(rng.standard_normal(32) * 1e4)
    ens.networks = [
        FeedForwardNetwork(
            [n_features, *hidden, 1], rng=np.random.default_rng(seed + i)
        )
        for i in range(n_networks)
    ]
    return ens


class TestEnsembleBatchEquivalence:
    # Wide layers run rows-innermost; width-1 layers contract through
    # another einsum kernel (a dot, not an axpy) and keep the single
    # network's layout.  The stack must follow ``forward_rows`` through
    # every order of the two: width-1 first (one input feature), hidden
    # and output layers, wide -> narrow -> wide, and a 4-layer net.
    @pytest.mark.parametrize(
        "n_features,hidden",
        [
            (6, (14, 4)), (6, ()), (6, (1, 3)), (6, (3, 1)), (6, (14, 1, 4)),
            (6, (8, 8, 8)), (1, (5,)), (1, ()), (6, (1, 1)),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("n_members", [1, 4, 14])
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 48, 49, 300])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_stacked_forward_matches_per_member_oracle(
        self, n_features, hidden, n_members, n_rows, seed
    ):
        ens = make_ensemble(
            n_features=n_features, n_networks=n_members, seed=seed % 1000, hidden=hidden
        )
        x = np.random.default_rng(seed).standard_normal((n_rows, n_features))
        mean, std = ens.predict_mean_std(x)
        want_mean, want_std = oracle_mean_std(ens, x)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(std, want_std)
        # The mean-only walk is the same mean.
        assert np.array_equal(ens.predict(x), mean)
        # Row i alone == row i inside the batch.
        for i in {0, n_rows // 2, n_rows - 1}:
            m_i, s_i = ens.predict_mean_std(x[i : i + 1])
            assert m_i[0] == mean[i] and s_i[0] == std[i]
            assert ens.predict(x[i]) == mean[i]

    @given(
        n_rows=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_predict_mean_std_matches_per_row_bitwise(self, n_rows, seed):
        ens = make_ensemble(n_features=6, seed=17)
        x = np.random.default_rng(seed).standard_normal((n_rows, 6))
        mean, std = ens.predict_mean_std(x)
        assert mean.shape == (n_rows,) and std.shape == (n_rows,)
        for i in range(n_rows):
            m_i, s_i = ens.predict_mean_std(x[i : i + 1])
            assert mean[i] == m_i[0]
            assert std[i] == s_i[0]

    def test_one_pass_agrees_with_predict_and_predict_std(self):
        ens = make_ensemble(n_features=6, seed=3)
        x = np.random.default_rng(5).standard_normal((48, 6))
        mean, std = ens.predict_mean_std(x)
        assert np.array_equal(mean, ens.predict(x))
        assert np.array_equal(std, ens.predict_std(x))

    def test_forward_rows_row_stable(self):
        net = FeedForwardNetwork([6, 14, 4, 1], rng=np.random.default_rng(9))
        x = np.random.default_rng(11).standard_normal((200, 6))
        full = net.forward_rows(x)
        rows = np.array([net.forward_rows(x[i])[0] for i in range(200)])
        assert np.array_equal(full, rows)


class TestStackedEnsembleState:
    """The stacked tensors are derived state: they must follow the
    member arrays and stay out of pickles."""

    def test_rebinding_a_member_array_moves_the_next_prediction(self):
        ens = make_ensemble(n_features=6, n_networks=4, seed=21)
        x = np.random.default_rng(2).standard_normal((48, 6))
        before = ens.predict(x)
        assert np.array_equal(before, oracle_mean_std(ens, x)[0])
        net = ens.networks[2]
        net.weights[0] = net.weights[0] * 1.001
        after = ens.predict(x)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, oracle_mean_std(ens, x)[0])
        # set_weights and a replaced member list rebind too.
        ens.networks[0].set_weights(ens.networks[0].get_weights() * 0.5)
        assert np.array_equal(ens.predict(x), oracle_mean_std(ens, x)[0])
        ens.networks = ens.networks[:2] + [
            FeedForwardNetwork([6, 14, 4, 1], rng=np.random.default_rng(77))
        ]
        mean, std = ens.predict_mean_std(x)
        want_mean, want_std = oracle_mean_std(ens, x)
        assert np.array_equal(mean, want_mean) and np.array_equal(std, want_std)

    def test_rebinding_a_scaler_array_moves_the_next_prediction(self):
        ens = make_ensemble(n_features=6, n_networks=3, seed=5)
        x = np.random.default_rng(4).standard_normal((48, 6))
        for scaler, attr in [
            (ens.x_scaler, "mean_"), (ens.x_scaler, "scale_"),
            (ens.y_scaler, "mean_"), (ens.y_scaler, "scale_"),
        ]:
            before = ens.predict_mean_std(x)
            setattr(scaler, attr, getattr(scaler, attr) * 1.5 + 0.25)
            mean, std = ens.predict_mean_std(x)
            want_mean, want_std = oracle_mean_std(ens, x)
            assert not np.array_equal(mean, before[0])
            assert np.array_equal(mean, want_mean) and np.array_equal(std, want_std)

    def test_pickle_is_unchanged_by_the_first_query(self):
        ens = make_ensemble(n_features=6, n_networks=4, seed=8)
        x = np.random.default_rng(3).standard_normal((5, 6))
        cold = pickle.dumps(ens)
        want = ens.predict_mean_std(x)
        assert pickle.dumps(ens) == cold
        loaded = pickle.loads(cold)
        got = loaded.predict_mean_std(x)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert pickle.dumps(loaded) == cold

    def test_forward_results_are_fresh_arrays(self, surrogate):
        """The forward runs ``tanh`` and finishes the member mean in
        place: neither may write into an array a caller holds, at one
        row (the twin-row path), a population and a population plus one."""
        rng = np.random.default_rng(11)
        width = 1 + len(PARAMS)
        rows = rng.random((48, width))
        first = surrogate.predict_features(rows)
        second = surrogate.predict_features(rows)
        mean, std = surrogate.predict_mean_std(rows)
        single = make_ensemble(n_features=width, n_networks=1, seed=3)
        alone = [single.predict(rows), single.predict(rows), *single.predict_mean_std(rows)]
        results = [first, second, mean, std]
        for group in (results, alone):
            for i, a in enumerate(group):
                assert not np.shares_memory(a, rows)
                for b in group[i + 1 :]:
                    assert not np.shares_memory(a, b)
        kept = [r.copy() for r in results + alone]
        for n in (1, 48, 49):
            later = rng.random((n, width))
            surrogate.predict_features(later)
            surrogate.predict_mean_std(later)
            single.predict(later)
            single.predict_mean_std(later)
        for got, want in zip(results + alone, kept):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(first, second) and np.array_equal(first, mean)

    def test_mismatched_member_topologies_rejected(self):
        from repro.errors import TrainingError

        ens = make_ensemble(n_features=6, n_networks=2, seed=1)
        ens.networks[1] = FeedForwardNetwork([6, 8, 1], rng=np.random.default_rng(0))
        with pytest.raises(TrainingError):
            ens.predict(np.zeros((1, 6)))


def elementwise_fitness(weights):
    """A (scalar, batch) fitness pair whose rows agree bitwise."""

    def scalar(genes: np.ndarray) -> float:
        return float(np.sum(np.tanh(genes * weights), axis=-1))

    def batch(matrix: np.ndarray) -> np.ndarray:
        return np.sum(np.tanh(matrix * weights), axis=-1)

    return scalar, batch


class TestGABatchDeterminism:
    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_ga_result_bitwise_identical(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal(ENCODER.n_genes) / np.maximum(ENCODER.upper, 1.0)
        scalar, batch = elementwise_fitness(weights)

        kwargs = dict(population_size=16, generations=12, stagnation_limit=6)
        a = GeneticAlgorithm(ENCODER, fitness_fn=scalar, **kwargs).run(seed=seed)
        b = GeneticAlgorithm(ENCODER, fitness_batch_fn=batch, **kwargs).run(seed=seed)

        assert a.best_configuration == b.best_configuration
        assert a.best_fitness == b.best_fitness  # bitwise: no tolerance
        assert a.evaluations == b.evaluations
        assert a.generations == b.generations
        assert a.history == b.history

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        population=st.integers(min_value=4, max_value=64),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_initial_block_draw_is_the_random_genes_row_stream(self, seed, population):
        seen = []

        def batch(matrix: np.ndarray) -> np.ndarray:
            seen.append(matrix.copy())
            return np.zeros(matrix.shape[0])

        GeneticAlgorithm(
            ENCODER, fitness_batch_fn=batch, population_size=population, generations=1
        ).run(seed=seed)
        rng = derive_rng(seed)
        rows = np.stack([ENCODER.random_genes(rng) for _ in range(population)])
        assert seen[0].tobytes() == rows.tobytes()

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scored_winners_are_snapped_rows_bitwise(self, seed):
        """Every winner the GA scores, riding last in a batch or alone, is
        ``encoder.snap`` of a population row bit for bit — the sign of
        zero too, which ``round`` gets wrong for small negative integral
        genes: here a seeded row at the fitness peak, -0.3 on every gene,
        wins every generation."""
        seen = []

        def batch(matrix: np.ndarray) -> np.ndarray:
            seen.append(matrix.copy())
            return -np.sum((matrix + 0.3) ** 2, axis=-1)

        GeneticAlgorithm(
            SIGNED_ENCODER, fitness_batch_fn=batch, population_size=12, generations=8,
            penalty_scale=0.0,
        ).run(seed=seed, initial=[np.full(SIGNED_ENCODER.n_genes, -0.3)])
        winners = [matrix[-1] for matrix in seen if len(matrix) in (1, 13)]
        assert len(winners) == 9  # one per generation
        for genes in winners:
            assert SIGNED_ENCODER.snap(genes).tobytes() == genes.tobytes()
            assert (genes[SIGNED_ENCODER.integral] == 0.0).all()

    def test_needs_some_fitness(self):
        from repro.errors import SearchError

        with pytest.raises(SearchError):
            GeneticAlgorithm(ENCODER)

    def test_batch_row_count_validated(self):
        from repro.errors import SearchError

        ga = GeneticAlgorithm(
            ENCODER,
            fitness_batch_fn=lambda m: np.zeros(m.shape[0] + 1),
            population_size=8,
            generations=2,
        )
        with pytest.raises(SearchError):
            ga.run(seed=0)


def run_both(make_ga, seed, initial=None):
    """``GeneticAlgorithm.run`` and ``reference_ga_run`` on twin GAs, each
    on a ``Generator`` of its own from ``seed``: the five result fields,
    the ``search.*`` events and the generator's position afterwards must
    all be the reference's.  Returns the production result."""
    outcomes = []
    for reference in (False, True):
        bus, log = EventBus(), []
        bus.subscribe(log.append, topic="search")
        ga = make_ga(bus)
        rng = np.random.default_rng(seed)
        if reference:
            result = reference_ga_run(ga, seed=rng, initial=initial)
        else:
            result = ga.run(seed=rng, initial=initial)
            assert ga.evaluations == result.evaluations
        events = [(e.topic, e.message, e.payload) for e in log]
        outcomes.append((result, events, rng.bit_generator.state))
    (got, got_events, got_state), (want, want_events, want_state) = outcomes
    assert got.best_configuration == want.best_configuration
    assert got.best_fitness == want.best_fitness  # bitwise: no tolerance
    assert type(got.best_fitness) is type(want.best_fitness)
    assert got.evaluations == want.evaluations
    assert got.generations == want.generations
    assert got.history == want.history
    assert got_events == want_events
    assert got_state == want_state
    return got


class TestPipelinedRunEqualsReference:
    """A generation's snapped winner is scored with the *next*
    generation's population and booked after that call; everything a
    caller can see is what scoring it on the spot gave."""

    SIZES = [(48, 16), (48, 70), (8, 1), (5, 3)]

    @pytest.mark.parametrize("seeded", [False, True], ids=["random", "seeded"])
    @pytest.mark.parametrize("mode", ["scalar", "batch"])
    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    @pytest.mark.parametrize("population,generations", SIZES, ids=str)
    def test_surrogate_search(
        self, surrogate, population, generations, penalty, mode, seeded
    ):
        optimizer = ConfigurationOptimizer(surrogate, uncertainty_penalty=penalty)
        encoder = optimizer.encoder
        initial = None
        if seeded:
            rng = np.random.default_rng(population + generations)
            initial = [optimizer.default_genes, encoder.upper.copy()] + [
                encoder.encode(SPACE.sample_configuration(rng, PARAMS))
                for _ in range(2)
            ]
        for seed, rr in ((0, 0.6), (2017, 0.05)):
            if mode == "batch":
                fitness = dict(fitness_batch_fn=optimizer._fitness_batch(rr))
            else:
                fitness = dict(fitness_fn=scalar_fitness(optimizer, rr))
            run_both(
                lambda bus: GeneticAlgorithm(
                    encoder,
                    population_size=population,
                    generations=generations,
                    bus=bus,
                    **fitness,
                ),
                seed,
                initial,
            )

    @pytest.mark.parametrize("limit", [1, 2, 3])
    @pytest.mark.parametrize("cap", [-1e9, 0.4, 1.1, np.inf], ids=str)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_plateau_stops_on_the_reference_generation(self, limit, cap, seed):
        """A fitness that rises to ``cap`` and stays: stagnation counts
        run up to the limit and are reset by late improvements, so the
        winner is scored on the spot in some generations and with the
        next population in others.  The search must stop on the exact
        generation without breeding or scoring one population more."""
        weights = np.random.default_rng(seed).standard_normal(SIGNED_ENCODER.n_genes)
        weights /= SIGNED_ENCODER.span
        calls = []

        def make_ga(bus):
            sizes = []
            calls.append(sizes)

            def batch(matrix: np.ndarray) -> np.ndarray:
                sizes.append(len(matrix))
                return np.minimum(np.sum(np.tanh(matrix * weights), axis=-1), cap)

            return GeneticAlgorithm(
                SIGNED_ENCODER,
                fitness_batch_fn=batch,
                population_size=12,
                generations=30,
                stagnation_limit=limit,
                bus=bus,
            )

        result = run_both(make_ga, seed)
        ours, reference = calls
        assert reference == [12, 1] * (result.generations + 1)
        assert sum(ours) == sum(reference)
        assert sum(size >= 12 for size in ours) == result.generations + 1
        assert set(ours) <= {1, 12, 13}
        if cap == -1e9:  # flat from the start: stops at generation `limit`
            assert result.generations == limit
            assert result.evaluations == 13 * (limit + 1)
        if limit == 1:  # every winner can end the search: none rides along
            assert 13 not in ours
        elif result.generations > limit:  # some rode along, the last never does
            assert 13 in ours and ours[-1] == 1


class TestSearchEvents:
    def test_ga_publishes_lifecycle_events(self):
        bus = EventBus()
        events = []
        bus.subscribe(events.append, topic="search")
        scalar, batch = elementwise_fitness(np.ones(ENCODER.n_genes))
        ga = GeneticAlgorithm(
            ENCODER, fitness_batch_fn=batch, population_size=8, generations=4, bus=bus
        )
        ga.run(seed=0)
        topics = [e.topic for e in events]
        assert topics[0] == "search.start"
        assert topics[-1] == "search.done"
        gens = [e for e in events if e.topic == "search.generation"]
        assert 1 <= len(gens) <= 4
        assert gens[0].payload["generation"] == 1
        assert "evaluations" in gens[0].payload

    def test_no_bus_is_noop(self):
        scalar, _ = elementwise_fitness(np.ones(ENCODER.n_genes))
        result = GeneticAlgorithm(
            ENCODER, fitness_fn=scalar, population_size=8, generations=2
        ).run(seed=1)
        assert result.evaluations > 0


@pytest.fixture(scope="module")
def surrogate():
    """Small trained surrogate shared by the optimizer equivalence tests."""
    rng = np.random.default_rng(7)
    samples = []
    for _ in range(18):
        config = SPACE.sample_configuration(rng, PARAMS)
        vec = config.to_vector(PARAMS)
        for rr in (0.1, 0.5, 0.9):
            target = 50_000 + 25_000 * vec[2] - 15_000 * (vec[1] - 0.4) ** 2 + 4_000 * rr
            samples.append(
                PerformanceSample(
                    workload=WorkloadSpec(read_ratio=float(rr)),
                    configuration=config,
                    throughput=float(target),
                )
            )
    dataset = PerformanceDataset(samples, PARAMS)
    model = SurrogateModel(SPACE, PARAMS, EnsembleConfig(n_networks=3, max_epochs=40))
    return model.fit(dataset, seed=4)


class TestOptimizerBatchEquivalence:
    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    def test_batched_and_scalar_paths_identical(self, surrogate, penalty):
        """``optimize`` against a GA run on the per-row oracle plus the
        vendor-default floor scored through it: once where evolution
        wins, once (a 6 x 2 budget) where the floor does."""
        for population, generations, seed, floor_wins in ((16, 10, 9, False), (6, 2, 6, True)):
            optimizer = ConfigurationOptimizer(
                surrogate,
                population_size=population,
                generations=generations,
                uncertainty_penalty=penalty,
            )
            fast = optimizer.optimize(0.6, seed=seed)

            fitness = scalar_fitness(optimizer, 0.6)
            ref = GeneticAlgorithm(
                optimizer.encoder,
                fitness_fn=fitness,
                population_size=population,
                generations=generations,
            ).run(seed=seed)
            default_fitness = fitness(optimizer.default_genes)
            assert (default_fitness > ref.best_fitness) is floor_wins
            if floor_wins:
                want = (SPACE.default_configuration(), default_fitness)
            else:
                want = (ref.best_configuration, ref.best_fitness)

            assert (fast.configuration, fast.predicted_throughput) == want  # bitwise
            assert fast.evaluations == ref.evaluations + 1
            assert fast.history == ref.history

    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    def test_riding_floor_is_one_row_score(self, surrogate, penalty):
        """The vendor default rides as the last row of generation 0's
        batch; it must score what a one-row call of its own, and the
        per-row oracle, give it."""
        optimizer = ConfigurationOptimizer(surrogate, uncertainty_penalty=penalty)
        default = optimizer.default_genes
        population = np.random.default_rng(3).uniform(
            optimizer.encoder.lower, optimizer.encoder.upper, size=(48, len(default))
        )
        batch = np.concatenate((population, default[None, :]))
        for rr in np.linspace(0.0, 1.0, 101):
            got = optimizer._fitness_batch(rr)(default[None, :])
            assert got.shape == (1,)
            assert float(got[0]) == scalar_fitness(optimizer, rr)(default)
            assert optimizer._fitness_batch(rr)(batch)[-1] == got[0]

    @pytest.mark.parametrize(
        "penalty,method", [(0.0, "predict_features"), (0.5, "predict_mean_std")]
    )
    def test_call_inventory_of_a_full_search(self, surrogate, monkeypatch, penalty, method):
        """A 48 x 16 search that runs every generation makes G + 2 = 18
        surrogate calls and scores 834 rows: generation 0 with the
        default floor riding last, 16 generations each with the previous
        winner riding last, and the last winner alone."""
        optimizer = ConfigurationOptimizer(
            surrogate, population_size=48, generations=16, uncertainty_penalty=penalty
        )
        calls = []

        def recorder(inner):
            def wrapper(rows):
                calls.append((inner.__name__, rows.copy()))
                return inner(rows)

            return wrapper

        for name in ("predict_features", "predict_mean_std"):
            monkeypatch.setattr(surrogate, name, recorder(getattr(surrogate, name)))
        before = surrogate.stats.n_queries
        result = optimizer.optimize(0.3, seed=5)

        assert len(result.history) == 17  # no early stop
        assert [name for name, _ in calls] == [method] * 18
        assert [len(rows) for _, rows in calls] == [49] * 17 + [1]
        assert result.evaluations == sum(len(rows) for _, rows in calls) == 834
        floor_row = optimizer.encoder.features_batch(optimizer.default_genes[None, :], 0.3)
        assert calls[0][1][-1].tobytes() == floor_row[0].tobytes()
        assert surrogate.stats.n_queries == before + 834

    def test_surrogate_method_is_looked_up_per_search(self, surrogate, monkeypatch):
        """A wrapper shadowing ``predict_features`` on the surrogate
        instance *after* the Rafiki is built, as the e2e trace does, sees
        every call of the next search: 18 calls and 834 rows at 48 x 16."""
        rafiki = Rafiki(CassandraLike(), surrogate, PARAMS, seed=1)
        rafiki.optimizer.generations = 16
        sizes = []
        inner = surrogate.predict_features

        def counting(rows):
            sizes.append(len(rows))
            return inner(rows)

        monkeypatch.setattr(surrogate, "predict_features", counting)
        result = rafiki.recommend(0.3)
        assert len(sizes) == 18
        assert sum(sizes) == result.evaluations == 834

    def test_uncertainty_penalty_single_ensemble_walk(self, surrogate):
        """The penalized fitness must not re-run the ensemble for the
        spread: n_queries grows by the row count once, not twice."""
        before = surrogate.stats.n_queries
        rows = np.atleast_2d(surrogate.encode(0.5, SPACE.default_configuration()))
        surrogate.predict_mean_std(rows)
        assert surrogate.stats.n_queries == before + 1

    def test_optimizer_emits_events(self, surrogate):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, topic="search")
        ConfigurationOptimizer(
            surrogate, population_size=12, generations=4, bus=bus
        ).optimize(0.5, seed=0)
        assert any(e.topic == "search.start" for e in seen)
        assert any(e.topic == "search.done" for e in seen)


class TestColdSearchPinned:
    """``optimize`` on the test surrogate, to the last bit, at values
    captured before the search's fitness and the ensemble's forward were
    last rewritten: production and ``tests/oracles.py`` cannot drift
    together unnoticed.  ``(penalty, population, generations, read
    ratio, seed)`` -> the non-default settings, ``predicted_throughput``
    as hex, ``evaluations``, ``len(history)`` and a hash of ``history``."""

    CASES = [
        (  # the e2e budget, every generation run
            (0.0, 48, 16, 0.3, 5),
            {"compaction_method": "LeveledCompactionStrategy", "concurrent_writes": 39,
             "file_cache_size_in_mb": 1750,
             "memtable_cleanup_threshold": 0.3512849370148661, "concurrent_compactors": 4},
            "0x1.1c8f8f4fc7c4dp+16", 834, 17,
            "c8e791b269f42c445d3d12c259031921ac3c8cd8b1edd8c1194bb38fc4b2aaa1",
        ),
        (  # the same under an uncertainty penalty
            (0.5, 48, 16, 0.3, 5),
            {"compaction_method": "LeveledCompactionStrategy", "concurrent_writes": 43,
             "file_cache_size_in_mb": 1632,
             "memtable_cleanup_threshold": 0.25959490123521756, "concurrent_compactors": 5},
            "0x1.168fa19d340f2p+16", 834, 17,
            "92ed62c7c894524ed8fae2fb6c2d617b8fbca85db94917cec01f7cf35138e1b3",
        ),
        (  # the vendor-default floor wins
            (0.5, 6, 2, 0.6, 6),
            {},
            "0x1.bc3beb2bd83efp+15", 22, 3,
            "9aed8ffbcd963fe00394d118ebf4792a04c00641b723d311257d1273315c5acb",
        ),
        (  # stops early on stagnation, at generation 64 of 70
            (0.0, 24, 70, 0.9, 0),
            {"concurrent_writes": 37, "file_cache_size_in_mb": 2048,
             "memtable_cleanup_threshold": 0.39560859294451334, "concurrent_compactors": 6},
            "0x1.33b2ae8bc9749p+16", 1626, 65,
            "95a94e2f4f6761dd2820e0e3b4c4bebd66becf49134222228ea3f04de49c3c35",
        ),
    ]

    @pytest.mark.parametrize(
        "budget,non_default,throughput,evaluations,n_history,history_sha", CASES,
        ids=lambda value: str(value) if isinstance(value, tuple) else "",
    )
    def test_result_is_pinned(
        self, surrogate, budget, non_default, throughput, evaluations, n_history, history_sha
    ):
        penalty, population, generations, rr, seed = budget
        result = ConfigurationOptimizer(
            surrogate,
            population_size=population,
            generations=generations,
            uncertainty_penalty=penalty,
        ).optimize(rr, seed=seed)
        assert result.configuration.non_default_items() == non_default
        assert result.predicted_throughput.hex() == throughput
        assert result.evaluations == evaluations
        assert len(result.history) == n_history
        digest = hashlib.sha256(np.array(result.history).tobytes()).hexdigest()
        assert digest == history_sha


class TestBaselineSearcherEquivalence:
    def test_greedy_matches_per_config_reference(self, surrogate):
        result = GreedySearch(surrogate, resolution=5).optimize(0.5)

        # Reference: the old one-predict-per-candidate loop.
        space = surrogate.space
        current = space.default_configuration()
        evaluations = 0
        for name in surrogate.feature_parameters:
            best_value, best_tp = current[name], -np.inf
            for value in space[name].grid(5):
                candidate = current.with_updates(**{name: value})
                tp = surrogate.predict(0.5, candidate)
                evaluations += 1
                if tp > best_tp:
                    best_value, best_tp = value, tp
            current = current.with_updates(**{name: best_value})
        final_tp = surrogate.predict(0.5, current)
        evaluations += 1

        assert result.configuration == current
        assert result.predicted_throughput == float(final_tp)  # bitwise
        assert result.evaluations == evaluations

    @pytest.mark.parametrize("chunk_size", [7, 64, 1000])
    def test_random_matches_per_config_reference(self, surrogate, chunk_size):
        budget = 60
        result = RandomSearch(surrogate, budget=budget, chunk_size=chunk_size).optimize(
            0.4, seed=3
        )

        from repro.sim.rng import derive_rng

        rng = derive_rng(3)
        space = surrogate.space
        names = surrogate.feature_parameters
        best_config, best_tp = None, -np.inf
        history = []
        for _ in range(budget):
            config = space.sample_configuration(rng, names)
            tp = surrogate.predict(0.4, config)
            if tp > best_tp:
                best_config, best_tp = config, tp
            history.append(best_tp)

        assert result.configuration == best_config
        assert result.predicted_throughput == float(best_tp)  # bitwise
        assert result.evaluations == budget
        assert result.history == [float(h) for h in history]

"""Batch-vs-scalar equivalence of the vectorized search stack.

The evaluation stack (the encoder's integrality gap and snap,
``predict_mean_std``, the GA's lockstep fitness, the optimizer's
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
``scalar_fitness``, ``violation_batch`` and ``reference_ga_run``,
``encode(decode(g))``, one ``rng.uniform(lower, upper)`` row at a time).
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
from repro.sim.rng import derive_rng
from repro.workload.spec import WorkloadSpec
from tests.oracles import (
    lockstep_fitness,
    oracle_mean_std,
    reference_ga_run,
    scalar_fitness,
    violation_batch,
)

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


class TestEncoderBatchEquivalence:
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
        assert gap.tobytes() == violation_batch(encoder, genes).tobytes()
        # ... and clipping them again, as every feature row used to, moves nothing.
        assert np.clip(genes, encoder.lower, encoder.upper).tobytes() == genes.tobytes()

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
        assert (violation_batch(encoder, snapped) == 0.0).all()

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
    """A smooth fitness in the GA's form, one ``tanh`` sum per row."""
    return lockstep_fitness(lambda matrix: np.sum(np.tanh(matrix * weights), axis=-1))


class TestGABatchDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        population=st.integers(min_value=4, max_value=64),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_initial_block_draw_is_the_random_genes_row_stream(self, seed, population):
        """The initial population is one block draw: the rows that drawing
        random genes one ``rng.uniform(lower, upper)`` vector at a time
        gives, bit for bit."""
        seen = []

        def batch(matrix: np.ndarray) -> np.ndarray:
            seen.append(matrix.copy())
            return np.zeros(matrix.shape[0])

        GeneticAlgorithm(
            ENCODER, lockstep_fitness(batch), population_size=population, generations=1
        ).run(seed=seed)
        rng = derive_rng(seed)
        rows = np.stack([rng.uniform(ENCODER.lower, ENCODER.upper) for _ in range(population)])
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
            SIGNED_ENCODER, lockstep_fitness(batch), population_size=12, generations=8,
            penalty_scale=0.0,
        ).run(seed=seed, initial=[np.full(SIGNED_ENCODER.n_genes, -0.3)])
        winners = [matrix[-1] for matrix in seen if len(matrix) in (1, 13)]
        assert len(winners) == 9  # one per generation
        for genes in winners:
            assert SIGNED_ENCODER.snap(genes).tobytes() == genes.tobytes()
            assert (genes[SIGNED_ENCODER.integral] == 0.0).all()

    def test_needs_some_fitness(self):
        with pytest.raises(TypeError):
            GeneticAlgorithm(ENCODER)

    def test_batch_row_count_validated(self):
        from repro.errors import SearchError

        ga = GeneticAlgorithm(
            ENCODER,
            lambda batch, mask: np.zeros(np.count_nonzero(mask) + 1),
            population_size=8,
            generations=2,
        )
        with pytest.raises(SearchError):
            ga.run(seed=0)


def run_both(make_ga, seed, initial=None):
    """``GeneticAlgorithm.run`` and ``reference_ga_run`` on twin GAs, each
    on a ``Generator`` of its own from ``seed``: the five result fields
    and the generator's position afterwards must all be the reference's.
    Returns the production result."""
    outcomes = []
    for reference in (False, True):
        ga = make_ga()
        rng = np.random.default_rng(seed)
        if reference:
            result = reference_ga_run(ga, ga.fitness_lockstep_fn, seed=rng, initial=initial)
        else:
            result = ga.run(seed=rng, initial=initial)
        outcomes.append((result, rng.bit_generator.state))
    (got, got_state), (want, want_state) = outcomes
    assert got.best_configuration == want.best_configuration
    assert got.best_fitness == want.best_fitness  # bitwise: no tolerance
    assert type(got.best_fitness) is type(want.best_fitness)
    assert got.evaluations == want.evaluations
    assert got.generations == want.generations
    assert got.history == want.history
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
                fitness = optimizer._fitness_lockstep([rr])
            else:
                fitness = lockstep_fitness(scalar_fitness(optimizer, rr), per_row=True)
            run_both(
                lambda: GeneticAlgorithm(
                    encoder,
                    fitness,
                    population_size=population,
                    generations=generations,
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

        def make_ga():
            sizes = []
            calls.append(sizes)

            def batch(matrix: np.ndarray) -> np.ndarray:
                sizes.append(len(matrix))
                return np.minimum(np.sum(np.tanh(matrix * weights), axis=-1), cap)

            return GeneticAlgorithm(
                SIGNED_ENCODER,
                lockstep_fitness(batch),
                population_size=12,
                generations=30,
                stagnation_limit=limit,
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


def owner_fitness(weights, caps):
    """Per-search plateau fitness: search ``s`` scores
    ``min(sum(tanh(genes * weights[s])), caps[s])``.  Returns the lockstep
    form (every search's masked rows in one call) and, per search, its
    row-batch form through :func:`lockstep_fitness`; their rows agree
    bitwise."""

    def lockstep(batch: np.ndarray, mask: np.ndarray) -> np.ndarray:
        owners = np.nonzero(mask)[0]
        return np.minimum(
            np.sum(np.tanh(batch[mask] * weights[owners]), axis=-1), caps[owners]
        )

    def alone(s):
        def batch(matrix: np.ndarray) -> np.ndarray:
            return np.minimum(np.sum(np.tanh(matrix * weights[s]), axis=-1), caps[s])

        return lockstep_fitness(batch)

    return lockstep, alone


class TestLockstepEqualsAlone:
    """``run_lockstep`` / ``optimize_many``: each search of a lockstep run
    is, bit for bit, the reference loop and the search run alone — its
    result and its draws — while
    every generation is one fitness call for all of them."""

    @pytest.mark.parametrize("n_searches", [1, 2, 5])
    @pytest.mark.parametrize("limit", [1, 2, 4])
    def test_each_search_is_the_reference(self, n_searches, limit):
        rng = np.random.default_rng(100 * n_searches + limit)
        weights = rng.standard_normal((n_searches, SIGNED_ENCODER.n_genes))
        weights /= SIGNED_ENCODER.span
        caps = rng.choice([-1e9, 0.4, 1.1, np.inf], size=n_searches)
        seeds = [int(seed) for seed in rng.integers(2**31, size=n_searches)]
        lockstep, alone = owner_fitness(weights, caps)
        calls = []

        def counted(batch, mask):
            calls.append(int(mask.sum()))
            return lockstep(batch, mask)

        kwargs = dict(population_size=12, generations=30, stagnation_limit=limit)
        generators = [np.random.default_rng(seed) for seed in seeds]
        ga = GeneticAlgorithm(SIGNED_ENCODER, fitness_lockstep_fn=counted, **kwargs)
        results = ga.run_lockstep(generators)
        assert sum(r.evaluations for r in results) == sum(calls)
        for s, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            want = reference_ga_run(
                GeneticAlgorithm(SIGNED_ENCODER, alone(s), **kwargs),
                alone(s),
                seed=rng,
            )
            single = GeneticAlgorithm(
                SIGNED_ENCODER, alone(s), **kwargs
            ).run(seed=seed)
            for other in (want, single):
                got = results[s]
                assert got.best_configuration == other.best_configuration
                assert got.best_fitness == other.best_fitness  # bitwise
                assert (got.evaluations, got.generations, got.history) == (
                    other.evaluations, other.generations, other.history
                )
            assert generators[s].bit_generator.state == rng.bit_generator.state
        # One call per generation while any search lives, one more where a
        # winner is scored on the spot: never a call per search.
        assert len(calls) <= 2 * (max(r.generations for r in results) + 1)
        if n_searches == 5:  # the searches stop on different generations
            assert len({r.generations for r in results}) > 1

    @pytest.mark.parametrize("n_searches", [1, 2, 5])
    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    def test_optimize_many_is_optimize_alone(self, surrogate, n_searches, penalty):
        rng = np.random.default_rng(n_searches)
        read_ratios = [float(rr) for rr in rng.random(n_searches)]
        seeds = [int(seed) for seed in rng.integers(2**31, size=n_searches)]
        optimizer = ConfigurationOptimizer(
            surrogate, population_size=16, generations=30, uncertainty_penalty=penalty
        )
        together = optimizer.optimize_many(read_ratios, seeds)
        for rr, seed, got in zip(read_ratios, seeds, together):
            want = optimizer.optimize(rr, seed=seed)
            assert (got.configuration, got.predicted_throughput, got.evaluations) == (
                want.configuration, want.predicted_throughput, want.evaluations
            )
            assert got.history == want.history

    def test_call_inventory_of_a_round(self, surrogate, monkeypatch):
        """A round's three 48 x 16 searches make the G + 2 = 18 surrogate
        calls of one search, through a wrapper put on the surrogate after
        the Rafiki was built: generation 0 with each floor riding, 16
        generations with each previous winner riding, the last winners
        together."""
        rafiki = Rafiki(CassandraLike(), surrogate, PARAMS, seed=1)
        rafiki.optimizer.generations = 16
        sizes = []
        inner = surrogate.predict_features

        def counting(rows):
            sizes.append(len(rows))
            return inner(rows)

        monkeypatch.setattr(surrogate, "predict_features", counting)
        with rafiki.prefetch([0.2, 0.5, 0.8]):
            results = [rafiki.recommend(rr) for rr in (0.2, 0.5, 0.8)]
        assert all(len(result.history) == 17 for result in results)
        assert sizes == [3 * 49] * 17 + [3]
        assert sum(sizes) == sum(result.evaluations for result in results) == 3 * 834


def population_log(matrices, population):
    """The populations among the row batches a fitness was handed: the
    first ``population`` rows of every batch that holds one."""
    return [m[:population].tobytes() for m in matrices if len(m) >= population]


#: A PCG64 position whose first GA integer block (``ENCODER``, P = 48)
#: holds a Lemire rejection: ``default_rng(seed)`` advanced by ``advance``
#: words, the 240 words of generation 0's population drawn, puts word
#: 6,405,338 of the seed's stream — a high half ``u`` with
#: ``(u * 48) % 2**32 < 16`` — 69 words into generation 1's block.
#: Found by scanning the stream 2**20 words at a time.
REJECTION = (2, 6_405_029)


class TestFusedDraws:
    """A search on a PCG64 with no buffered half draws a generation's
    tournaments, crossover weights and mutation mask as one raw block;
    any other generator, and a search whose block held a Lemire
    rejection, draws through ``integers`` and ``random``.  Either way
    each search is ``reference_ga_run`` on the public calls: its result,
    and its generator's state afterwards, ``uinteger`` slot included."""

    @staticmethod
    def assert_reference(results, generators, make_rng, make_ga, fitnesses):
        for s, got in enumerate(results):
            rng = make_rng(s)
            want = reference_ga_run(make_ga(fitnesses[s]), fitnesses[s], seed=rng)
            assert got.best_configuration == want.best_configuration
            assert got.best_fitness == want.best_fitness  # bitwise
            assert (got.evaluations, got.generations, got.history) == (
                want.evaluations, want.generations, want.history
            )
            # Pickled: an MT19937's state holds an array.
            states = (generators[s].bit_generator.state, rng.bit_generator.state)
            assert pickle.dumps(states[0]) == pickle.dumps(states[1])

    @pytest.mark.parametrize("n_searches", [1, 20])
    @pytest.mark.parametrize("population", [4, 5, 48, 200])
    def test_fused_draws_are_the_public_calls(self, population, n_searches):
        """100 seeds, run alone or 20 to a lockstep, on plateau fitnesses
        that stop the searches on different generations."""
        rng = np.random.default_rng(population)
        weights = rng.standard_normal((100, SIGNED_ENCODER.n_genes)) / SIGNED_ENCODER.span
        caps = rng.choice([-1e9, 0.4, 1.1, np.inf], size=100)
        kwargs = dict(population_size=population, generations=6, stagnation_limit=2)
        stops = set()
        for first in range(0, 100, n_searches):
            owners = slice(first, first + n_searches)
            lockstep, alone = owner_fitness(weights[owners], caps[owners])
            generators = [np.random.default_rng(first + s) for s in range(n_searches)]
            results = GeneticAlgorithm(SIGNED_ENCODER, lockstep, **kwargs).run_lockstep(
                generators
            )
            stops.update(result.generations for result in results)
            self.assert_reference(
                results,
                generators,
                lambda s: np.random.default_rng(first + s),
                lambda fit: GeneticAlgorithm(SIGNED_ENCODER, fit, **kwargs),
                [alone(s) for s in range(n_searches)],
            )
        assert len(stops) > 1 and min(stops) < 6  # some stop mid-run

    @staticmethod
    def mt19937(seed):
        return np.random.Generator(np.random.MT19937(seed))

    @staticmethod
    def buffered(seed):
        rng = np.random.default_rng(seed)
        rng.integers(7)  # one 32-bit half drawn, its twin buffered
        assert rng.bit_generator.state["has_uint32"]
        return rng

    @pytest.mark.parametrize("population", [5, 48])
    def test_other_generators_take_the_public_calls(self, population):
        """An MT19937 and a PCG64 with a half buffered, in one lockstep
        with a fused search."""
        makers = [np.random.default_rng, self.mt19937, self.buffered]
        weights = np.random.default_rng(3).standard_normal((3, ENCODER.n_genes)) / ENCODER.span
        lockstep, alone = owner_fitness(weights, np.full(3, np.inf))
        kwargs = dict(population_size=population, generations=12)
        generators = [make(40 + s) for s, make in enumerate(makers)]
        results = GeneticAlgorithm(ENCODER, lockstep, **kwargs).run_lockstep(generators)
        self.assert_reference(
            results,
            generators,
            lambda s: makers[s](40 + s),
            lambda fit: GeneticAlgorithm(ENCODER, fit, **kwargs),
            [alone(s) for s in range(3)],
        )

    def test_lemire_rejection_rewinds_to_the_public_calls(self):
        """The pinned position's first integer block holds a rejection:
        that search rewinds its block and redraws it through the public
        calls, and a fused search beside it is untouched."""
        seed, advance = REJECTION

        def at_rejection(s):
            rng = np.random.default_rng(seed + s)
            if s == 0:
                rng.bit_generator.advance(advance)
            return rng

        probe = at_rejection(0).bit_generator.random_raw(48 * ENCODER.n_genes + 138)
        scaled = probe[-138:].view(np.uint32).astype(np.uint64) * 48
        assert ((scaled & 0xFFFFFFFF) < (2**32 - 48) % 48).any()
        weights = np.random.default_rng(4).standard_normal((2, ENCODER.n_genes)) / ENCODER.span
        lockstep, alone = owner_fitness(weights, np.full(2, np.inf))
        generators = [at_rejection(s) for s in range(2)]
        results = GeneticAlgorithm(ENCODER, lockstep, generations=8).run_lockstep(generators)
        self.assert_reference(
            results,
            generators,
            at_rejection,
            lambda fit: GeneticAlgorithm(ENCODER, fit, generations=8),
            [alone(s) for s in range(2)],
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_unmutated_genes_keep_their_signed_zero(self, seed):
        """A population seeded all ``-0.0`` breeds ``-0.0`` children: the
        unmutated genes must keep that sign through the mutation add, bit
        for bit as the reference's masked add leaves them."""
        seen = {False: [], True: []}

        def recorder(reference):
            def batch(matrix):
                seen[reference].append(matrix.copy())
                return np.sum(np.tanh(matrix), axis=-1)

            return lockstep_fitness(batch)

        initial = [np.full(SIGNED_ENCODER.n_genes, -0.0)] * 12
        kwargs = dict(population_size=12, generations=6, penalty_scale=0.0)
        GeneticAlgorithm(SIGNED_ENCODER, recorder(False), **kwargs).run(
            seed=seed, initial=initial
        )
        reference_ga_run(
            GeneticAlgorithm(SIGNED_ENCODER, recorder(True), **kwargs),
            recorder(True),
            seed=seed,
            initial=initial,
        )
        got, want = (population_log(seen[flag], 12) for flag in (False, True))
        assert got == want
        bred = np.frombuffer(b"".join(got[1:]))
        assert ((bred == 0.0) & np.signbit(bred)).any()


class TestSearchEvents:
    """A search publishes nothing: its result is its whole record."""

    def test_no_bus_is_noop(self):
        result = GeneticAlgorithm(
            ENCODER, elementwise_fitness(np.ones(ENCODER.n_genes)), population_size=8,
            generations=2,
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
                lockstep_fitness(fitness, per_row=True),
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
        """The vendor default rides as the last row of each search's part
        of generation 0's call; it must score what the per-row oracle's
        one-row call gives it, whichever searches it rides with."""
        optimizer = ConfigurationOptimizer(surrogate, uncertainty_penalty=penalty)
        encoder, default = optimizer.encoder, optimizer.default_genes
        population = optimizer.population_size
        rrs = np.linspace(0.0, 1.0, 101)
        batch = np.random.default_rng(3).uniform(
            encoder.lower, encoder.upper, size=(len(rrs), population + 1, len(default))
        )
        mask = np.ones(batch.shape[:2], dtype=bool)
        mask[:, population] = False
        together = optimizer._fitness_lockstep(rrs)
        scores = together(batch, mask)
        assert scores.shape == (len(rrs) * population,)
        for s, rr in enumerate(rrs):
            alone = optimizer._fitness_lockstep([rr])
            assert alone(batch[s : s + 1], mask[s : s + 1]).tobytes() == (
                scores[s * population : (s + 1) * population].tobytes()
            )
            assert together.floors[s] == alone.floors[0]
            assert together.floors[s] == scalar_fitness(optimizer, rr)(default)

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
        encoder = optimizer.encoder
        floor_row = np.concatenate(([0.3], (optimizer.default_genes - encoder.lower) / encoder.span))
        assert calls[0][1][-1].tobytes() == floor_row.tobytes()
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

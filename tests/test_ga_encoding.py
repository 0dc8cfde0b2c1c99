import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.search import ConfigurationOptimizer
from repro.errors import SearchError
from repro.ga.algorithm import GeneticAlgorithm
from repro.ga.encoding import ConfigurationEncoder


@pytest.fixture(scope="module")
def encoder():
    return ConfigurationEncoder(cassandra_space(), CASSANDRA_KEY_PARAMETERS)


class TestEncoder:
    def test_gene_count(self, encoder):
        assert encoder.n_genes == 5

    def test_needs_parameters(self):
        with pytest.raises(SearchError):
            ConfigurationEncoder(cassandra_space(), [])

    def test_bounds_match_specs(self, encoder):
        space = cassandra_space()
        cw_idx = list(encoder.names).index("concurrent_writes")
        assert encoder.lower[cw_idx] == space["concurrent_writes"].low
        assert encoder.upper[cw_idx] == space["concurrent_writes"].high

    def test_categorical_encoded_as_index(self, encoder):
        cm_idx = list(encoder.names).index("compaction_method")
        assert encoder.lower[cm_idx] == 0.0
        assert encoder.upper[cm_idx] == 1.0
        assert encoder.integral[cm_idx]

    def test_decode_valid_configuration(self, encoder, rng):
        genes = rng.uniform(encoder.lower, encoder.upper)
        config = encoder.decode(genes)
        for name in encoder.names:
            encoder.space[name].validate(config[name])

    def test_decode_wrong_length(self, encoder):
        with pytest.raises(SearchError):
            encoder.decode(np.zeros(3))

    def test_encode_decode_round_trip(self, encoder, rng):
        config = encoder.space.sample_configuration(rng, encoder.names)
        back = encoder.decode(encoder.encode(config))
        for name in encoder.names:
            assert back[name] == config[name]

    def test_decode_clips_out_of_bounds(self, encoder):
        genes = encoder.upper + 100.0
        config = encoder.decode(genes)
        for name, hi in zip(encoder.names, encoder.upper):
            spec = encoder.space[name]
            spec.validate(config[name])

    def test_features_include_read_ratio(self, encoder):
        """The surrogate's feature rows for a search: the read ratio, then
        the genes unit-scaled by the encoder's bounds."""
        seen = []

        class Recorder:
            space, feature_parameters = encoder.space, encoder.names

            def predict_features(self, rows):
                seen.append(rows.copy())
                return np.zeros(len(rows))

        ConfigurationOptimizer(Recorder(), population_size=8, generations=2).optimize(0.7)
        rows = np.concatenate(seen)
        assert rows.shape[1] == 1 + encoder.n_genes
        assert (rows[:, 0] == 0.7).all()
        assert (rows[:, 1:] >= 0).all() and (rows[:, 1:] <= 1).all()


class TestViolation:
    """The GA's in-bounds violation: the integrality gap."""

    def test_feasible_point_zero(self, encoder):
        config = encoder.space.default_configuration()
        assert encoder._integrality_gap(encoder.encode(config)) == 0.0

    def test_fractional_integer_violates(self, encoder):
        genes = encoder.encode(encoder.space.default_configuration())
        cw_idx = list(encoder.names).index("concurrent_writes")
        genes[cw_idx] += 0.4
        assert encoder._integrality_gap(genes) == pytest.approx(0.4)

    def test_out_of_bounds_violates(self, encoder):
        """Out of bounds is infeasible: the GA refuses such a seed, and
        snapping moves the gene onto its bound."""
        genes = encoder.encode(encoder.space.default_configuration())
        genes[0] = encoder.upper[0] + (encoder.upper[0] - encoder.lower[0])
        assert encoder.snap(genes)[0] == encoder.upper[0]
        ga = GeneticAlgorithm(encoder, lambda batch, mask: np.zeros(np.count_nonzero(mask)))
        with pytest.raises(SearchError, match="within the encoder's bounds"):
            ga.run(initial=[genes])

    def test_float_parameters_never_integral_violation(self, encoder):
        genes = encoder.encode(encoder.space.default_configuration())
        mt_idx = list(encoder.names).index("memtable_cleanup_threshold")
        genes[mt_idx] = 0.237  # arbitrary in-range float
        assert encoder._integrality_gap(genes) == 0.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_decode_always_feasible(self, encoder, seed):
        rng = np.random.default_rng(seed)
        genes = rng.uniform(encoder.lower - 5, encoder.upper + 5)
        config = encoder.decode(genes)
        snapped = encoder.encode(config)
        assert np.all((snapped >= encoder.lower) & (snapped <= encoder.upper))
        assert encoder._integrality_gap(snapped) == 0.0

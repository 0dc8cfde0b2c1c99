import pytest

from repro.config import (
    CASSANDRA_KEY_PARAMETERS,
    SCYLLA_KEY_PARAMETERS,
    cassandra_space,
    scylla_space,
)
from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.config.scylla import SCYLLA_AUTOTUNED_PARAMETERS


class TestCassandraSpace:
    def test_has_25_parameters(self):
        assert len(cassandra_space()) == 25

    def test_key_parameters_present(self):
        space = cassandra_space()
        for name in CASSANDRA_KEY_PARAMETERS:
            assert name in space

    def test_five_key_parameters(self):
        assert len(CASSANDRA_KEY_PARAMETERS) == 5

    def test_default_compaction_is_size_tiered(self):
        assert cassandra_space().default_configuration()["compaction_method"] == SIZE_TIERED

    def test_compaction_choices(self):
        spec = cassandra_space()["compaction_method"]
        assert set(spec.choices) == {SIZE_TIERED, LEVELED}

    def test_vendor_defaults(self):
        cfg = cassandra_space().default_configuration()
        assert cfg["concurrent_writes"] == 32
        assert cfg["file_cache_size_in_mb"] == 512
        assert cfg["memtable_cleanup_threshold"] == pytest.approx(0.11)
        assert cfg["concurrent_compactors"] == 2

    def test_key_parameter_search_space_size(self):
        """§1: 'the search space conservatively has 25,000 points' for
        5 parameters x 10 workloads; our quantized space is comparable."""
        space = cassandra_space()
        card = space.cardinality(CASSANDRA_KEY_PARAMETERS, float_resolution=10)
        assert card > 2_000  # paper quotes 2,560 configurations (S3.5)

    def test_descriptions_everywhere(self):
        assert all(p.description for p in cassandra_space().parameters)


class TestScyllaSpace:
    def test_same_parameter_names_as_cassandra(self):
        assert set(scylla_space().names) == set(cassandra_space().names)

    def test_autotuned_are_real_parameters(self):
        space = scylla_space()
        for name in SCYLLA_AUTOTUNED_PARAMETERS:
            assert name in space

    def test_scylla_key_parameters_not_autotuned(self):
        """§4.10: strip ignored parameters before selecting the key set."""
        assert not (set(SCYLLA_KEY_PARAMETERS) & SCYLLA_AUTOTUNED_PARAMETERS)

    def test_five_scylla_key_parameters(self):
        assert len(SCYLLA_KEY_PARAMETERS) == 5

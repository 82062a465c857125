"""Tests for the configuration objects."""

import pytest

from repro.config import NGramJobConfig, UNBOUNDED
from repro.exceptions import ConfigurationError


class TestNGramJobConfig:
    def test_defaults(self):
        config = NGramJobConfig()
        assert config.min_frequency == 1
        assert config.max_length is UNBOUNDED
        assert config.num_reducers >= 1

    def test_paper_symbol_aliases(self):
        config = NGramJobConfig(min_frequency=7, max_length=3)
        assert config.tau == 7
        assert config.sigma == 3

    def test_rejects_non_positive_tau(self):
        with pytest.raises(ConfigurationError):
            NGramJobConfig(min_frequency=0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ConfigurationError):
            NGramJobConfig(min_frequency=-5)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ConfigurationError):
            NGramJobConfig(max_length=0)

    def test_none_sigma_means_unbounded(self):
        config = NGramJobConfig(max_length=None)
        assert config.effective_max_length(42) == 42

    def test_effective_max_length_clamps_to_document(self):
        config = NGramJobConfig(max_length=5)
        assert config.effective_max_length(3) == 3
        assert config.effective_max_length(10) == 5

    def test_rejects_invalid_num_reducers(self):
        with pytest.raises(ConfigurationError):
            NGramJobConfig(num_reducers=0)

    def test_rejects_invalid_apriori_index_k(self):
        with pytest.raises(ConfigurationError):
            NGramJobConfig(apriori_index_k=0)

    def test_with_updates_returns_new_instance(self):
        config = NGramJobConfig(min_frequency=2)
        updated = config.with_updates(min_frequency=9)
        assert updated.min_frequency == 9
        assert config.min_frequency == 2

    def test_with_updates_validates(self):
        config = NGramJobConfig()
        with pytest.raises(ConfigurationError):
            config.with_updates(min_frequency=0)

    def test_frozen(self):
        config = NGramJobConfig()
        with pytest.raises(Exception):
            config.min_frequency = 10  # type: ignore[misc]


class TestParseSpillThreshold:
    def test_bare_number_is_bytes(self):
        from repro.config import parse_spill_threshold

        assert parse_spill_threshold("65536") == (65536, None)

    def test_byte_suffixes(self):
        from repro.config import parse_spill_threshold

        assert parse_spill_threshold("64kb") == (64 * 1024, None)
        assert parse_spill_threshold("8MB") == (8 * 1024 * 1024, None)
        assert parse_spill_threshold("512b") == (512, None)
        assert parse_spill_threshold("1gb") == (1024**3, None)

    def test_record_counts(self):
        from repro.config import parse_spill_threshold

        assert parse_spill_threshold("100k") == (None, 100_000)
        assert parse_spill_threshold("2m") == (None, 2_000_000)
        assert parse_spill_threshold("5000r") == (None, 5000)
        assert parse_spill_threshold("5000rec") == (None, 5000)
        assert parse_spill_threshold("250records") == (None, 250)
        assert parse_spill_threshold(" 42 k ") == (None, 42_000)

    def test_invalid_values_rejected(self):
        from repro.config import parse_spill_threshold

        for bad in ("", "abc", "10x", "-5", "1.5k", "0"):
            with pytest.raises(ConfigurationError):
                parse_spill_threshold(bad)


class TestExecutionConfigNewFields:
    def test_spill_threshold_records_validation(self):
        from repro.config import ExecutionConfig

        assert ExecutionConfig(spill_threshold_records=100).spill_threshold_records == 100
        with pytest.raises(ConfigurationError):
            ExecutionConfig(spill_threshold_records=0)

    def test_shard_codec_validation(self):
        from repro.config import ExecutionConfig

        assert ExecutionConfig(shard_codec="gzip").shard_codec == "gzip"
        with pytest.raises(ConfigurationError):
            ExecutionConfig(shard_codec="lz77")


class TestStoreConfig:
    def test_defaults_are_valid(self):
        from repro.config import StoreConfig

        config = StoreConfig()
        assert config.num_partitions >= 1
        assert config.codec == "none"

    def test_validation(self):
        from repro.config import StoreConfig

        with pytest.raises(ConfigurationError):
            StoreConfig(num_partitions=0)
        with pytest.raises(ConfigurationError):
            StoreConfig(codec="bogus")
        with pytest.raises(ConfigurationError):
            StoreConfig(records_per_block=0)
        with pytest.raises(ConfigurationError):
            StoreConfig(sample_size=0)


class TestServerConfig:
    def test_defaults_are_valid(self):
        from repro.config import ServerConfig

        config = ServerConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 0  # ephemeral by default
        assert config.cache_blocks >= 1
        assert config.max_clients >= 1

    def test_validation(self):
        from repro.config import ServerConfig

        with pytest.raises(ConfigurationError):
            ServerConfig(port=-1)
        with pytest.raises(ConfigurationError):
            ServerConfig(port=70_000)
        with pytest.raises(ConfigurationError):
            ServerConfig(cache_blocks=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(max_clients=0)

    def test_serving_topology_fields(self):
        from repro.config import ServerConfig

        config = ServerConfig(protocol="http", num_shards=3, shard_index=2)
        assert (config.protocol, config.num_shards, config.shard_index) == ("http", 3, 2)
        assert ServerConfig().protocol == "socket"  # the pre-redesign default
        with pytest.raises(ConfigurationError):
            ServerConfig(protocol="gopher")
        with pytest.raises(ConfigurationError):
            ServerConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(num_shards=2, shard_index=2)
        with pytest.raises(ConfigurationError):
            ServerConfig(shard_index=-1)

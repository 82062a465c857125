"""Tests for the per-block Bloom filter: guarantees, rates, persistence."""

import random

import pytest

from repro.exceptions import StoreError
from repro.util.bloom import BloomFilter, optimal_num_hashes


def sample_keys(count, seed, tag):
    rng = random.Random(seed)
    return [
        (tag, tuple(rng.randint(0, 10_000) for _ in range(rng.randint(1, 4))))
        for _ in range(count)
    ]


class TestBloomFilter:
    def test_no_false_negatives_ever(self):
        """The hard guarantee: every added key answers might_contain."""
        for count in (1, 7, 64, 1000):
            keys = sample_keys(count, seed=count, tag="in")
            bloom = BloomFilter.build(keys)
            assert all(bloom.might_contain(key) for key in keys)
            assert all(key in bloom for key in keys)

    def test_false_positive_rate_near_budget(self):
        """10 bits/key targets ~1%; allow generous slack, reject garbage."""
        keys = sample_keys(2000, seed=3, tag="member")
        bloom = BloomFilter.build(keys, bits_per_key=10)
        probes = sample_keys(4000, seed=99, tag="absent")
        false_positives = sum(1 for key in probes if bloom.might_contain(key))
        assert false_positives / len(probes) < 0.05

    def test_ngram_key_false_positive_rate_at_default_budget(self):
        """Flat int tuples — the store's keys — hash through one packed C call.

        Block-sized filters (256 keys, the store's default) at the default
        bits-per-key must keep the ~1 % design rate: at most 2.5 % of 20 000
        absent n-grams may pass.
        """
        rng = random.Random(29)
        universe = set()
        while len(universe) < 2_560 + 20_000:
            universe.add(tuple(rng.randint(0, 5_000) for _ in range(rng.randint(1, 5))))
        universe = sorted(universe)
        rng.shuffle(universe)
        members, absent = universe[:2_560], universe[2_560:]
        blooms = [BloomFilter.build(members[start : start + 256]) for start in range(0, 2_560, 256)]
        assert all(
            bloom.might_contain(key)
            for index, bloom in enumerate(blooms)
            for key in members[index * 256 : (index + 1) * 256]
        )
        passed = sum(
            1 for index, key in enumerate(absent) if blooms[index % 10].might_contain(key)
        )
        assert passed / len(absent) <= 0.025

    def test_fewer_bits_more_false_positives(self):
        keys = sample_keys(1000, seed=5, tag="member")
        probes = sample_keys(3000, seed=55, tag="absent")

        def rate(bits_per_key):
            bloom = BloomFilter.build(keys, bits_per_key=bits_per_key)
            return sum(1 for key in probes if bloom.might_contain(key))

        assert rate(2) > rate(10) >= rate(18)

    def test_mixed_key_types(self):
        """Any stable_hash-able key works: the store hashes ngram tuples."""
        keys = [(1, 2, 3), ("the", "quick", "fox"), "single", 42, ("mixed", 7)]
        bloom = BloomFilter.build(keys)
        assert all(bloom.might_contain(key) for key in keys)

    def test_empty_key_set_rejects_everything_or_nothing_safely(self):
        bloom = BloomFilter.build([])
        assert not bloom.might_contain((1, 2))

    def test_deterministic_across_builds(self):
        """Persisted filters must be reproducible: stable_hash, no salt."""
        keys = sample_keys(500, seed=17, tag="d")
        assert BloomFilter.build(keys).to_spec() == BloomFilter.build(keys).to_spec()

    def test_spec_round_trip(self):
        keys = sample_keys(300, seed=23, tag="rt")
        bloom = BloomFilter.build(keys)
        restored = BloomFilter.from_spec(bloom.to_spec())
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes
        probes = keys + sample_keys(300, seed=24, tag="probe")
        assert [restored.might_contain(key) for key in probes] == [
            bloom.might_contain(key) for key in probes
        ]

    def test_from_spec_none_passes_through(self):
        """Legacy block indexes carry no filter; readers get None, not an error."""
        assert BloomFilter.from_spec(None) is None

    def test_malformed_spec_is_a_clean_error(self):
        with pytest.raises(StoreError, match="malformed bloom filter spec"):
            BloomFilter.from_spec((8,))
        with pytest.raises(StoreError, match="malformed bloom filter spec"):
            BloomFilter.from_spec("junk")

    def test_constructor_validation(self):
        with pytest.raises(StoreError, match="num_bits"):
            BloomFilter(0, 1, b"")
        with pytest.raises(StoreError, match="num_hashes"):
            BloomFilter(8, 0, b"\x00")
        with pytest.raises(StoreError, match="bit array"):
            BloomFilter(16, 2, b"\x00")  # 16 bits need 2 bytes

    def test_build_validation(self):
        with pytest.raises(StoreError, match="bits_per_key"):
            BloomFilter.build([(1,)], bits_per_key=0)

    def test_optimal_num_hashes_clamped(self):
        assert optimal_num_hashes(1) == 1
        assert optimal_num_hashes(10) == 7  # ln2 * 10
        assert optimal_num_hashes(1000) == 16

"""Tests for the deterministic hashing helpers."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import repro
from repro.util.hashing import _mix64, stable_hash


def generic_tuple_hash(key):
    """The recursive per-element mix: the path non-packable tuples take."""
    value = 0x2545F4914F6CDD1D
    for element in key:
        value = _mix64(value ^ stable_hash(element))
    return value


def sample_ngrams(count, seed):
    rng = random.Random(seed)
    ngrams = set()
    while len(ngrams) < count:
        ngrams.add(tuple(rng.randint(0, 5_000) for _ in range(rng.randint(1, 5))))
    return sorted(ngrams)


class TestStableHash:
    def test_supported_types(self):
        for key in (0, 123456, -5, "term", b"bytes", ("a", 1), (1, (2, 3)), True, False):
            value = stable_hash(key)
            assert isinstance(value, int)
            assert value >= 0

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_hash(3.14)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            stable_hash(["list"])  # type: ignore[arg-type]

    def test_deterministic_within_process(self):
        assert stable_hash(("a", "b", 3)) == stable_hash(("a", "b", 3))

    def test_deterministic_across_processes(self):
        # str hashing must not depend on PYTHONHASHSEED.
        code = "from repro.util.hashing import stable_hash; print(stable_hash(('hello', 42)))"
        outputs = set()
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                check=False,
            )
            if result.returncode != 0:
                pytest.skip("subprocess could not import repro (environment-specific)")
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1
        assert outputs == {str(stable_hash(("hello", 42)))}

    def test_order_sensitivity_for_tuples(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_bool_differs_from_int_semantics(self):
        # Bools are normalised explicitly; both variants must be stable ints.
        assert isinstance(stable_hash(True), int)
        assert isinstance(stable_hash(False), int)
        assert stable_hash(True) != stable_hash(False)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8))
    def test_distribution_over_partitions(self, terms):
        # Hash values modulo a small partition count cover the full range
        # reasonably: at minimum, they are valid partition indexes.
        partitions = 7
        index = stable_hash(tuple(terms)) % partitions
        assert 0 <= index < partitions

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_equal_inputs_equal_hashes(self, left, right):
        if left == right:
            assert stable_hash(left) == stable_hash(right)
        # (Different inputs are allowed to collide, so no assertion otherwise.)

    def test_spread_of_consecutive_integers(self):
        # splitmix-style mixing should spread consecutive ints across buckets.
        buckets = {stable_hash(value) % 16 for value in range(256)}
        assert len(buckets) == 16


class TestPackedIntTuplePath:
    def test_flat_int_tuples_deterministic_across_processes(self):
        """n-gram keys take the packed path; it must ignore PYTHONHASHSEED too."""
        keys = [(1, 2, 3), (0,), (), (5_000, 17, 3, 3, 9), (-4, 2**63 - 1), (True, 2)]
        code = (
            "from repro.util.hashing import stable_hash; "
            f"print([stable_hash(key) for key in {keys!r}])"
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for seed in ("0", "4242"):
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": source_root, "PATH": "/usr/bin:/bin"},
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert outputs == {str([stable_hash(key) for key in keys])}

    def test_bool_elements_hash_as_the_ints_they_equal(self):
        assert (True, 2) == (1, 2)
        assert stable_hash((True, 2)) == stable_hash((1, 2))
        assert stable_hash((False,)) == stable_hash((0,))
        # ... on the generic path as well (a text element forces it).
        assert stable_hash((True, "x")) == stable_hash((1, "x"))

    def test_int64_overflow_keys_take_the_generic_path(self):
        """Which path a tuple takes depends on its value only, so equal keys agree."""
        for key in ((2**63, 1), (-(2**63) - 1,), (2**70, 2, 3), tuple(range(40))):
            assert stable_hash(key) == generic_tuple_hash(key)
            assert stable_hash(key) == stable_hash(tuple(int(element) for element in key))
        # The int64 boundary itself still packs, and differs from its neighbour.
        assert stable_hash((2**63 - 1,)) != stable_hash((2**63,))
        assert stable_hash((-(2**63),)) != stable_hash((-(2**63) - 1,))

    def test_nested_and_text_tuples_keep_the_generic_hash(self):
        for key in (("a", 1), (1, (2, 3)), (b"x", 2)):
            assert stable_hash(key) == generic_tuple_hash(key)

    @pytest.mark.parametrize("partitions", [4, 7])
    def test_partition_balance_over_ngrams(self, partitions):
        ngrams = sample_ngrams(10_000, seed=11)
        loads = [0] * partitions
        for ngram in ngrams:
            loads[stable_hash(ngram) % partitions] += 1
        uniform = len(ngrams) / partitions
        assert max(loads) <= 1.2 * uniform
        assert min(loads) >= 0.8 * uniform

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8).map(tuple))
    def test_packed_hash_is_a_64_bit_value(self, key):
        assert 0 <= stable_hash(key) < 2**64

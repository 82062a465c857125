"""Tests for k-way store merging (compaction) and its merge-join kernel."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import StoreConfig
from repro.corpus.collection import EncodedCollection
from repro.exceptions import StoreError
from repro.harness.datasets import nytimes_like
from repro.algorithms import count_ngrams
from repro.applications.language_model import NGramLanguageModel
from repro.ngramstore import LSMStore, NGramStore, build_store, merge_stores
from repro.ngramstore import merge as kernel


def make_records(count, seed, max_term=40):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, max_term) for _ in range(rng.randint(1, 3))))
    return [(key, rng.randint(1, 200)) for key in sorted(keys)]


def unigram_total(statistics):
    """Sum of unigram frequencies (what base.py records in store metadata)."""
    return sum(count for ngram, count in statistics.items() if len(ngram) == 1)


def summed(*record_lists):
    totals = {}
    for records in record_lists:
        for key, value in records:
            totals[key] = totals.get(key, 0) + value
    return dict(sorted(totals.items()))


def kernel_sum(stores):
    """The merge kernel over the stores' main streams, duplicates summed."""
    return kernel.summed(kernel.merge_join(store.items() for store in stores))


KEYS = st.tuples(st.integers(0, 5)) | st.tuples(st.integers(0, 5), st.integers(0, 5))

#: One to five count tables, each streamed in key order.
TABLES = st.lists(st.dictionaries(KEYS, st.integers(1, 9), max_size=12), min_size=1, max_size=5)


def joined(tables):
    return kernel.merge_join(sorted(table.items()) for table in tables)


class TestMergeJoinKernel:
    """``merge_join`` and each combine equal a brute-force dict computation."""

    @settings(max_examples=200, deadline=None)
    @given(TABLES)
    @example([{}])
    @example([{}, {}, {}, {}, {}])
    @example([{(1,): 1}, {(2,): 2}, {(3,): 3}])
    @example([{(1,): 1, (2,): 2}, {(1,): 3, (2,): 4}, {(1,): 5, (2,): 6}])
    def test_combines_match_brute_force(self, tables):
        keys = sorted(set().union(*tables))
        first, rest = tables[0], tables[1:]
        assert list(joined(tables)) == [
            (key, [table.get(key, kernel.ABSENT) for table in tables]) for key in keys
        ]
        assert list(kernel.summed(joined(tables))) == [
            (key, sum(table.get(key, 0) for table in tables)) for key in keys
        ]
        assert list(kernel.difference(joined(tables))) == [
            (key, first[key]) for key in sorted(first) if not any(key in t for t in rest)
        ]
        assert list(kernel.intersection(joined(tables))) == [
            (key, [table[key] for table in tables])
            for key in keys
            if all(key in table for table in tables)
        ]

    def test_sum_adds_in_input_order(self):
        streams = [[((1,), ["a"])], [((1,), ["b"]), ((2,), ["c"])], [((1,), ["d"])]]
        assert list(kernel.summed(kernel.merge_join(streams))) == [
            ((1,), ["a", "b", "d"]),
            ((2,), ["c"]),
        ]

    def test_generation_view_sums_with_the_kernel_sum(self, tmp_path):
        lsm = LSMStore.init(str(tmp_path / "lsm"))
        lsm.ingest_records([((1,), {"2000": 3})])
        lsm.ingest_records([((1,), {"2001": 4})])
        with lsm.view() as view:
            with pytest.raises(StoreError, match="do not support addition"):
                view.get((1,))
            with pytest.raises(StoreError, match="do not support addition"):
                list(view.scan())


class TestMergeRecords:
    def test_duplicates_summed_across_inputs(self, tmp_path):
        left = make_records(200, seed=1)
        right = make_records(200, seed=2)  # overlapping key space by construction
        overlap = {key for key, _ in left} & {key for key, _ in right}
        assert overlap  # the fixture must actually exercise duplicate keys
        left_dir, right_dir = str(tmp_path / "left"), str(tmp_path / "right")
        build_store(left, left_dir, store=StoreConfig(num_partitions=2))
        build_store(right, right_dir, store=StoreConfig(num_partitions=3))
        with NGramStore.open(left_dir) as a, NGramStore.open(right_dir) as b:
            assert dict(kernel_sum([a, b])) == summed(left, right)

    def test_non_summable_duplicate_rejected(self, tmp_path):
        left_dir, right_dir = str(tmp_path / "left"), str(tmp_path / "right")
        build_store([((1,), {"2000": 3})], left_dir)
        build_store([((1,), {"2001": 4})], right_dir)
        with NGramStore.open(left_dir) as a, NGramStore.open(right_dir) as b:
            with pytest.raises(StoreError, match="do not support addition"):
                list(kernel_sum([a, b]))


class TestMergeStores:
    def test_merged_equals_sum(self, tmp_path):
        left = make_records(300, seed=5)
        right = make_records(250, seed=6)
        left_dir, right_dir = str(tmp_path / "left"), str(tmp_path / "right")
        out_dir = str(tmp_path / "merged")
        build_store(left, left_dir, store=StoreConfig(num_partitions=2, records_per_block=16))
        build_store(right, right_dir, store=StoreConfig(num_partitions=4, records_per_block=64))
        merge_stores([left_dir, right_dir], out_dir, store=StoreConfig(num_partitions=3))
        expected = summed(left, right)
        with NGramStore.open(out_dir) as merged:
            assert dict(merged.items()) == expected
            assert list(merged.items()) == sorted(expected.items())
            # Spot queries route correctly through re-derived boundaries.
            for key in list(expected)[::23]:
                assert merged.get(key) == expected[key]
            assert merged.top_k(5) == sorted(
                expected.items(), key=lambda record: (-record[1], record[0])
            )[:5]
            assert merged.metadata["merged_num_inputs"] == 2

    def test_empty_input_store_is_identity(self, tmp_path):
        records = make_records(150, seed=7)
        full_dir, empty_dir = str(tmp_path / "full"), str(tmp_path / "empty")
        out_dir = str(tmp_path / "merged")
        build_store(records, full_dir, store=StoreConfig(num_partitions=2))
        build_store([], empty_dir)
        merge_stores([full_dir, empty_dir], out_dir)
        with NGramStore.open(out_dir) as merged:
            assert list(merged.items()) == records

    def test_all_empty_inputs(self, tmp_path):
        first, second = str(tmp_path / "a"), str(tmp_path / "b")
        out_dir = str(tmp_path / "merged")
        build_store([], first)
        build_store([], second)
        merge_stores([first, second], out_dir)
        with NGramStore.open(out_dir) as merged:
            assert len(merged) == 0
            assert list(merged.items()) == []
            assert merged.get((1,)) is None

    def test_single_partition_inputs_merge_into_multi_partition(self, tmp_path):
        left = make_records(400, seed=8)
        right = make_records(400, seed=9)
        left_dir, right_dir = str(tmp_path / "left"), str(tmp_path / "right")
        out_dir = str(tmp_path / "merged")
        build_store(left, left_dir, store=StoreConfig(num_partitions=1))
        build_store(right, right_dir, store=StoreConfig(num_partitions=1))
        merge_stores(
            [left_dir, right_dir],
            out_dir,
            store=StoreConfig(num_partitions=4, records_per_block=32),
        )
        with NGramStore.open(out_dir) as merged:
            assert merged.num_partitions == 4
            assert len(merged.boundaries) == 3
            assert dict(merged.items()) == summed(left, right)
            # Per-partition tables are disjoint and ordered.
            previous_max = None
            for index in range(merged.num_partitions):
                table = merged._table(index)
                if len(table) == 0:
                    continue
                if previous_max is not None:
                    assert previous_max < table.min_key
                previous_max = table.max_key

    def test_codec_mixed_inputs(self, tmp_path):
        left = make_records(200, seed=10)
        right = make_records(200, seed=11)
        left_dir, right_dir = str(tmp_path / "gz"), str(tmp_path / "plain")
        out_dir = str(tmp_path / "merged")
        build_store(left, left_dir, store=StoreConfig(num_partitions=2, codec="gzip"))
        build_store(right, right_dir, store=StoreConfig(num_partitions=2, codec="none"))
        merge_stores(
            [left_dir, right_dir], out_dir, store=StoreConfig(num_partitions=2, codec="gzip")
        )
        with NGramStore.open(out_dir) as merged:
            assert merged.codec_name == "gzip"
            assert dict(merged.items()) == summed(left, right)

    def test_three_way_merge(self, tmp_path):
        shards = [make_records(120, seed=20 + index) for index in range(3)]
        shard_dirs = []
        for index, records in enumerate(shards):
            directory = str(tmp_path / f"shard-{index}")
            build_store(records, directory, store=StoreConfig(num_partitions=2))
            shard_dirs.append(directory)
        out_dir = str(tmp_path / "merged")
        merge_stores(shard_dirs, out_dir)
        with NGramStore.open(out_dir) as merged:
            assert dict(merged.items()) == summed(*shards)
            assert merged.metadata["merged_num_inputs"] == 3

    def test_boundary_planning_reads_no_data_blocks(self, tmp_path):
        """Boundaries come from block indexes: merging decodes each block once."""
        left = make_records(300, seed=40)
        right = make_records(300, seed=41)
        left_dir, right_dir = str(tmp_path / "left"), str(tmp_path / "right")
        out_dir = str(tmp_path / "merged")
        build_store(left, left_dir, store=StoreConfig(num_partitions=2, records_per_block=16))
        build_store(right, right_dir, store=StoreConfig(num_partitions=2, records_per_block=16))
        merge_stores([left_dir, right_dir], out_dir, store=StoreConfig(num_partitions=3))
        with NGramStore.open(out_dir) as merged:
            assert dict(merged.items()) == summed(left, right)
        # Re-open and count block decodes for the same merge: every input
        # block is read exactly once (the write pass), none for planning.
        with NGramStore.open(left_dir) as a, NGramStore.open(right_dir) as b:
            boundaries = kernel.plan_store_boundaries([a, b], StoreConfig(num_partitions=3))
            assert len(boundaries) == 2 and boundaries == sorted(boundaries)
            assert a.cache_stats().misses == 0
            assert b.cache_stats().misses == 0
            list(kernel_sum([a, b]))
            total_blocks = sum(
                store._table(index).num_blocks
                for store in (a, b)
                for index in range(store.num_partitions)
            )
            assert a.cache_stats().misses + b.cache_stats().misses == total_blocks

    def test_validation_errors(self, tmp_path):
        records = make_records(50, seed=12)
        store_dir = str(tmp_path / "store")
        build_store(records, store_dir)
        with pytest.raises(StoreError, match="at least one input"):
            merge_stores([], str(tmp_path / "out"))
        with pytest.raises(StoreError, match="cannot be one of the inputs"):
            merge_stores([store_dir], store_dir)

    def test_vocabulary_mismatch_rejected(self, tmp_path):
        collection_a = nytimes_like(num_documents=8, seed=1).build()
        collection_b = nytimes_like(num_documents=8, seed=99).build()
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        build_store(
            count_ngrams(collection_a, min_frequency=2).statistics.items(),
            a_dir,
            vocabulary=collection_a.vocabulary,
        )
        build_store(
            count_ngrams(collection_b, min_frequency=2).statistics.items(),
            b_dir,
            vocabulary=collection_b.vocabulary,
        )
        with pytest.raises(StoreError, match="different vocabularies"):
            merge_stores([a_dir, b_dir], str(tmp_path / "out"))

    def test_merge_preserves_common_vocabulary(self, tmp_path):
        collection = nytimes_like(num_documents=10, seed=4).build()
        statistics = count_ngrams(collection, min_frequency=2).statistics
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        out_dir = str(tmp_path / "merged")
        build_store(statistics.items(), a_dir, vocabulary=collection.vocabulary)
        build_store(statistics.items(), b_dir, vocabulary=collection.vocabulary)
        merge_stores([a_dir, b_dir], out_dir)
        with NGramStore.open(out_dir) as merged:
            assert merged.vocabulary is not None
            assert list(merged.vocabulary.terms()) == list(collection.vocabulary.terms())
            # Self-merge doubles every frequency.
            for key, value in list(statistics.items())[::17]:
                assert merged.get(key) == 2 * value


class TestMergeMatchesUnionRecount:
    """Per-shard counting runs, merged, equal a from-scratch union count.

    τ = 1 makes the equality exact: raw n-gram counts are additive across
    any document partition (n-grams never span documents), while τ > 1
    would drop shard-locally-infrequent n-grams before the merge could sum
    them (documented limitation).
    """

    def test_sharded_counts_merge_to_union_store(self, tmp_path):
        collection = nytimes_like(num_documents=30, seed=17).build()
        documents = list(collection.documents)
        vocabulary = collection.vocabulary
        first_half = EncodedCollection(documents[:15], vocabulary)
        second_half = EncodedCollection(documents[15:], vocabulary)

        shard_dirs = []
        for index, shard in enumerate((first_half, second_half)):
            result = count_ngrams(shard, min_frequency=1, max_length=3)
            directory = str(tmp_path / f"shard-{index}")
            build_store(
                result.statistics.items(),
                directory,
                store=StoreConfig(num_partitions=2, records_per_block=64),
                vocabulary=vocabulary,
                metadata={"unigram_total": unigram_total(result.statistics)},
            )
            shard_dirs.append(directory)

        merged_dir = str(tmp_path / "merged")
        merge_stores(
            shard_dirs, merged_dir, store=StoreConfig(num_partitions=3, records_per_block=64)
        )

        union = count_ngrams(collection, min_frequency=1, max_length=3)
        union_dir = str(tmp_path / "union")
        build_store(
            union.statistics.items(),
            union_dir,
            store=StoreConfig(num_partitions=3, records_per_block=64),
            vocabulary=vocabulary,
        )

        with NGramStore.open(merged_dir) as merged, NGramStore.open(union_dir) as scratch:
            # Query results over the merged store equal the from-scratch
            # union store: same records, same order, same top-k.
            assert list(merged.items()) == list(scratch.items())
            assert merged.top_k(10) == scratch.top_k(10)
            for key, _ in list(scratch.items())[::29]:
                assert merged.get(key) == scratch.get(key)
            prefix_term = scratch.top_k(1)[0][0][:1]
            assert list(merged.prefix(prefix_term)) == list(scratch.prefix(prefix_term))

    def test_merged_metadata_sums_unigram_total(self, tmp_path):
        collection = nytimes_like(num_documents=20, seed=23).build()
        documents = list(collection.documents)
        vocabulary = collection.vocabulary
        shard_dirs = []
        for index in range(2):
            shard = EncodedCollection(documents[index * 10 : (index + 1) * 10], vocabulary)
            result = count_ngrams(shard, min_frequency=1, max_length=2)
            directory = str(tmp_path / f"shard-{index}")
            result2 = result.statistics
            build_store(
                result2.items(),
                directory,
                vocabulary=vocabulary,
                metadata={
                    "unigram_total": unigram_total(result2),
                    "vocabulary_size": len(vocabulary),
                    "num_ngrams": len(result2),
                },
            )
            shard_dirs.append(directory)
        merged_dir = str(tmp_path / "merged")
        merge_stores(shard_dirs, merged_dir)
        with NGramStore.open(merged_dir) as merged:
            metadata = merged.metadata
            union_total = unigram_total(
                count_ngrams(collection, min_frequency=1, max_length=2).statistics
            )
            # Summed, not carried over stale — the language model's O(1)
            # init on a merged store stays exact.
            assert metadata["unigram_total"] == union_total
            assert "num_ngrams" not in metadata
            assert metadata["vocabulary_size"] == len(vocabulary)
            model = NGramLanguageModel.from_store(merged_dir, order=2)
            assert model.total_tokens == union_total


class TestMergeCLI:
    def test_merge_stores_cli(self, tmp_path, capsys):
        left = make_records(100, seed=30)
        right = make_records(100, seed=31)
        left_dir, right_dir = str(tmp_path / "a"), str(tmp_path / "b")
        out_dir = str(tmp_path / "merged")
        build_store(left, left_dir)
        build_store(right, right_dir)
        assert (
            main(
                [
                    "merge-stores",
                    left_dir,
                    right_dir,
                    "--output",
                    out_dir,
                    "--partitions",
                    "2",
                    "--codec",
                    "gzip",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "merged 2 stores" in output
        with NGramStore.open(out_dir) as merged:
            assert dict(merged.items()) == summed(left, right)
        assert main(["query", out_dir, "--stats"]) == 0

    def test_merge_cli_error_exit_2(self, tmp_path, capsys):
        assert (
            main(
                [
                    "merge-stores",
                    str(tmp_path / "missing"),
                    "--output",
                    str(tmp_path / "out"),
                ]
            )
            == 2
        )
        assert "error:" in capsys.readouterr().err

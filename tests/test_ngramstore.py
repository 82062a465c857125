"""Tests for the n-gram store: format, build job, query engine, consumers."""

import json
import os
import random

import pytest

from repro.algorithms import count_ngrams
from repro.applications.culturomics import trend_report
from repro.applications.language_model import NGramLanguageModel
from repro.cli import main
from repro.config import ExecutionConfig, StoreConfig
from repro.exceptions import StoreError
from repro.harness.datasets import nytimes_like
from repro.mapreduce.pipeline import JobPipeline
from repro.mapreduce.process import ProcessPoolJobRunner
from repro.mapreduce.runner import LocalJobRunner
from repro.ngrams.timeseries import (
    NGramTimeSeriesCollection,
    StoreBackedTimeSeriesCollection,
    TimeSeries,
)
from repro.ngramstore import (
    NGramStore,
    RangePartitioner,
    StoreStatistics,
    Table,
    TableWriter,
    build_store,
    plan_boundaries,
    sample_keys,
)
from repro.ngramstore.build import SortedRunReducer, total_order_sort_job
from repro.ngramstore.format import FORMAT_VERSION, read_footer
from repro.ngramstore.table import BlockCache, top_k_records
from repro.util.memory import PeakMemoryTracker


def make_records(count=500, seed=11, max_term=40, max_len=4):
    """Deterministic sorted-unique (ngram, frequency) records."""
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, max_term) for _ in range(rng.randint(1, max_len))))
    return [(key, rng.randint(1, 500)) for key in sorted(keys)]


@pytest.fixture()
def records():
    return make_records()


# --------------------------------------------------------------- table layer
class TestTable:
    def test_round_trip_all_queries(self, tmp_path, records):
        path = str(tmp_path / "table.ngt")
        with TableWriter(path, records_per_block=32) as writer:
            writer.extend(records)
        with Table(path) as table:
            assert len(table) == len(records)
            assert list(table) == records
            assert table.min_key == records[0][0]
            assert table.max_key == records[-1][0]
            for key, value in records[::17]:
                assert table.get(key) == value
                assert key in table
            assert table.get((999, 999)) is None
            assert (999, 999) not in table

    def test_sorted_invariant_enforced(self, tmp_path):
        writer = TableWriter(str(tmp_path / "t.ngt"))
        writer.append((1, 2), 10)
        with pytest.raises(StoreError, match="unsorted write"):
            writer.append((1, 1), 5)
        with pytest.raises(StoreError, match="unsorted write"):
            writer.append((1, 2), 5)  # duplicates are unsorted too
        writer.abort()
        assert not os.path.exists(writer.path)

    def test_block_boundary_keys_are_found(self, tmp_path, records):
        """Keys at the first/last slot of every block resolve correctly."""
        path = str(tmp_path / "table.ngt")
        block = 7  # uneven size so the last block is partial
        with TableWriter(path, records_per_block=block) as writer:
            writer.extend(records)
        with Table(path) as table:
            assert table.num_blocks == -(-len(records) // block)
            boundary_positions = set()
            for index in range(table.num_blocks):
                boundary_positions.add(index * block)
                boundary_positions.add(min(len(records), (index + 1) * block) - 1)
            for position in boundary_positions:
                key, value = records[position]
                assert table.get(key) == value

    def test_scan_range_and_prefix(self, tmp_path, records):
        path = str(tmp_path / "table.ngt")
        with TableWriter(path, records_per_block=16) as writer:
            writer.extend(records)
        with Table(path) as table:
            start, stop = records[100][0], records[300][0]
            assert list(table.scan(start=start, stop=stop)) == records[100:300]
            assert list(table.scan(stop=records[5][0])) == records[:5]
            prefix = (records[200][0][0],)
            expected = [r for r in records if r[0][: len(prefix)] == prefix]
            assert list(table.prefix(prefix)) == expected
            assert expected  # the fixture must actually exercise the path

    def test_top_k_orders(self, tmp_path, records):
        path = str(tmp_path / "table.ngt")
        with TableWriter(path, records_per_block=16) as writer:
            writer.extend(records)
        with Table(path) as table:
            by_freq = sorted(records, key=lambda r: (-r[1], r[0]))[:10]
            assert table.top_k(10, order="frequency") == by_freq
            assert table.top_k(10, order="key") == records[:10]
            with pytest.raises(StoreError, match="order"):
                table.top_k(3, order="bogus")
            with pytest.raises(StoreError, match="k must be"):
                table.top_k(0)

    @pytest.mark.parametrize("codec", ["gzip"])
    def test_compressed_results_byte_identical(self, tmp_path, records, codec):
        plain_path = str(tmp_path / "plain.ngt")
        packed_path = str(tmp_path / "packed.ngt")
        for path, name in ((plain_path, "none"), (packed_path, codec)):
            with TableWriter(path, codec=name, records_per_block=32) as writer:
                writer.extend(records)
        assert os.path.getsize(packed_path) < os.path.getsize(plain_path)
        with Table(plain_path) as plain, Table(packed_path) as packed:
            assert packed.codec_name == codec
            assert list(plain) == list(packed)
            for key, _ in records[::13]:
                assert plain.get(key) == packed.get(key)
            prefix = (records[50][0][0],)
            assert list(plain.prefix(prefix)) == list(packed.prefix(prefix))
            assert plain.top_k(20) == packed.top_k(20)

    def test_empty_table(self, tmp_path):
        path = str(tmp_path / "empty.ngt")
        with TableWriter(path) as writer:
            pass
        with Table(path) as table:
            assert len(table) == 0
            assert list(table) == []
            assert table.get((1,)) is None
            assert list(table.prefix((1,))) == []

    def test_corrupt_file_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ngt")
        with open(path, "wb") as handle:
            handle.write(b"definitely not a store table, but long enough to read")
        with pytest.raises(StoreError):
            Table(path)

    def test_block_cache_bounds_and_counts(self, tmp_path, records):
        path = str(tmp_path / "table.ngt")
        with TableWriter(path, records_per_block=8) as writer:
            writer.extend(records)
        with Table(path, cache_blocks=2) as table:
            for key, value in records:
                assert table.get(key) == value
            stats = table.cache_stats
            # Sequential point lookups over 8-record blocks: one miss per
            # block, hits for the other records of the block.
            assert stats.misses == table.num_blocks
            assert stats.hits == len(records) - table.num_blocks
            assert stats.evictions == table.num_blocks - 2

    def test_block_cache_validation(self):
        with pytest.raises(StoreError):
            BlockCache(0)


# --------------------------------------------------------------- build layer
class TestBuildHelpers:
    def test_sample_and_boundaries_are_deterministic(self, records):
        from repro.mapreduce.dataset import MemoryDataset

        dataset = MemoryDataset(records)
        sample = sample_keys(dataset, 64)
        assert sample == sample_keys(dataset, 64)
        assert len(sample) <= 2 * 64
        boundaries = plan_boundaries(sample, 4)
        assert boundaries == sorted(boundaries)
        assert len(boundaries) <= 3
        assert plan_boundaries(sample, 1) == []
        assert plan_boundaries([], 8) == []

    def test_range_partitioner_routes_by_boundaries(self):
        partitioner = RangePartitioner([(5,), (10,)])
        assert partitioner.num_partitions == 3
        assert partitioner.partition((1,), 3) == 0
        assert partitioner.partition((5,), 3) == 1  # boundary key goes right
        assert partitioner.partition((5, 0), 3) == 1
        assert partitioner.partition((10, 7), 3) == 2
        with pytest.raises(StoreError, match="num_reducers"):
            partitioner.partition((1,), 4)
        with pytest.raises(StoreError, match="strictly increasing"):
            RangePartitioner([(5,), (5,)])

    def test_sorted_run_reducer_rejects_duplicates(self):
        """The store's own error reaches the caller unchanged on both backends."""
        job = total_order_sort_job("dup", [])
        for runner in (LocalJobRunner(), ProcessPoolJobRunner(max_workers=2)):
            with pytest.raises(StoreError, match="duplicate key"):
                JobPipeline(runner=runner).run_job(job, [((1,), 1), ((1,), 2)])

    def test_duplicate_check_message_names_reducer(self):
        reducer = SortedRunReducer()
        with pytest.raises(StoreError, match="exactly one value"):
            reducer.reduce((1,), [1, 2], context=None)


class TestBuildStore:
    def test_multi_partition_store_round_trip(self, tmp_path, records):
        store_dir = str(tmp_path / "store")
        shuffled = list(records)
        random.Random(3).shuffle(shuffled)
        build_store(
            iter(shuffled),
            store_dir,
            store=StoreConfig(num_partitions=4, records_per_block=32),
        )
        manifest = json.load(open(os.path.join(store_dir, "store.json")))
        assert manifest["num_partitions"] == 4
        assert manifest["num_records"] == len(records)
        assert len(manifest["boundaries"]) == 3
        with NGramStore.open(store_dir) as store:
            # Global order: concatenated partitions == fully sorted input.
            assert list(store.items()) == records
            for key, value in records[::7]:
                assert store.get(key) == value
            assert store.get((10_000,)) is None

    def test_partitions_are_disjoint_and_ordered(self, tmp_path, records):
        store_dir = str(tmp_path / "store")
        build_store(records, store_dir, store=StoreConfig(num_partitions=4))
        with NGramStore.open(store_dir) as store:
            previous_max = None
            non_empty = 0
            for index in range(store.num_partitions):
                table = store._table(index)
                if len(table) == 0:
                    continue
                non_empty += 1
                if previous_max is not None:
                    assert previous_max < table.min_key
                previous_max = table.max_key
            assert non_empty >= 2  # the sampling actually spread the keys

    def test_prefix_spans_partition_boundaries(self, tmp_path):
        # Keys chosen so one first-term prefix straddles a partition cut.
        records = [((term, position), term * 100 + position) for term in range(6) for position in range(50)]
        store_dir = str(tmp_path / "store")
        build_store(records, store_dir, store=StoreConfig(num_partitions=5, sample_size=300))
        with NGramStore.open(store_dir) as store:
            for term in range(6):
                expected = [r for r in records if r[0][0] == term]
                assert list(store.prefix((term,))) == expected
            assert store.top_k(7) == sorted(records, key=lambda r: (-r[1], r[0]))[:7]

    def test_store_under_disk_materialization(self, tmp_path, records):
        store_dir = str(tmp_path / "store")
        build_store(
            records,
            store_dir,
            store=StoreConfig(num_partitions=3, codec="gzip"),
            execution=ExecutionConfig(materialize="disk", spill_threshold_bytes=1024),
        )
        with NGramStore.open(store_dir) as store:
            assert store.codec_name == "gzip"
            assert list(store.items()) == records

    def test_empty_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store([], store_dir)
        with NGramStore.open(store_dir) as store:
            assert len(store) == 0
            assert store.get((1,)) is None
            assert list(store.items()) == []
            assert store.top_k(5) == []

    def test_open_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            NGramStore.open(str(tmp_path))

    def test_rebuild_replaces_previous_store(self, tmp_path, records):
        """A rebuild leaves no stale tables and no stale manifest routing."""
        store_dir = str(tmp_path / "store")
        build_store(records, store_dir, store=StoreConfig(num_partitions=4))
        assert sum(name.endswith(".ngt") for name in os.listdir(store_dir)) == 4
        replacement = records[:20]
        build_store(replacement, store_dir, store=StoreConfig(num_partitions=1))
        # Fewer partitions: the old part files are gone, not orphaned.
        assert sum(name.endswith(".ngt") for name in os.listdir(store_dir)) == 1
        with NGramStore.open(store_dir) as store:
            assert list(store.items()) == replacement

    def test_clear_store_dir_removes_manifest_first(self, tmp_path, records, monkeypatch):
        """A crash mid-clear must leave no manifest routing to dead tables."""
        import repro.ngramstore.build as build_module

        store_dir = str(tmp_path / "store")
        build_store(records, store_dir, store=StoreConfig(num_partitions=2))
        removed = []
        real_remove = os.remove

        def failing_remove(path):
            removed.append(path)
            if path.endswith(".ngt"):
                raise OSError("disk died mid-clear")
            real_remove(path)

        monkeypatch.setattr(build_module.os, "remove", failing_remove)
        with pytest.raises(OSError, match="mid-clear"):
            build_module.clear_store_dir(store_dir)
        monkeypatch.undo()
        assert removed[0].endswith("store.json")  # manifest goes first
        with pytest.raises(StoreError, match="manifest"):
            NGramStore.open(store_dir)

    def test_failed_rebuild_refuses_to_open(self, tmp_path, records):
        """A crash mid-build must not leave an old manifest over new tables."""
        store_dir = str(tmp_path / "store")
        build_store(records, store_dir)
        with pytest.raises(StoreError, match="duplicate key"):
            build_store([((1,), 1), ((1,), 2)], store_dir)
        with pytest.raises(StoreError, match="manifest"):
            NGramStore.open(store_dir)


# --------------------------------------------------------------- query layer
class TestStoreStatistics:
    def test_statistics_facade(self, tmp_path, records):
        store_dir = str(tmp_path / "store")
        build_store(records, store_dir, store=StoreConfig(num_partitions=2))
        with NGramStore.open(store_dir) as store:
            statistics = StoreStatistics(store)
            expected = dict(records)
            assert len(statistics) == len(expected)
            assert set(statistics) == set(expected)
            sample_key = records[42][0]
            assert statistics.frequency(sample_key) == expected[sample_key]
            assert statistics.frequency((123_456,)) == 0
            assert statistics[sample_key] == expected[sample_key]
            with pytest.raises(KeyError):
                statistics[(123_456,)]
            assert sample_key in statistics
            unigrams = sorted(
                (r for r in records if len(r[0]) == 1), key=lambda r: (-r[1], r[0])
            )[:5]
            assert statistics.top(5, length=1) == unigrams


class TestLanguageModelOnStore:
    def test_scores_byte_identical_to_dict_backed(self, tmp_path):
        collection = nytimes_like(num_documents=25, seed=5).build()
        result = count_ngrams(collection, min_frequency=2, max_length=3)
        total_tokens = sum(len(sequence) for _, sequence in collection.records())
        store_dir = str(tmp_path / "store")
        build_store(
            result.statistics.items(),
            store_dir,
            store=StoreConfig(num_partitions=3, codec="gzip", records_per_block=64),
            vocabulary=collection.vocabulary,
        )
        dict_model = NGramLanguageModel(
            result.statistics, order=3, total_tokens=total_tokens
        )
        with NGramStore.open(store_dir) as store:
            store_model = NGramLanguageModel.from_store(
                store, order=3, total_tokens=total_tokens
            )
            assert store_model.total_tokens == dict_model.total_tokens
            assert store_model._vocabulary_size == dict_model._vocabulary_size
            sentences = [sequence for _, sequence in collection.records()][:20]
            for sentence in sentences:
                dict_scored = dict_model.score_sentence(sentence)
                store_scored = store_model.score_sentence(sentence)
                # Byte-identical: exact float equality, not approx.
                assert store_scored.log10_score == dict_scored.log10_score
                assert store_scored.per_token_scores == dict_scored.per_token_scores
            context = sentences[0][:2]
            assert store_model.continuations(context, top_k=5) == dict_model.continuations(
                context, top_k=5
            )

    def test_from_store_accepts_directory_path(self, tmp_path, records):
        store_dir = str(tmp_path / "store")
        build_store(records, store_dir)
        model = NGramLanguageModel.from_store(store_dir, order=2)
        assert model.statistics.frequency(records[0][0]) == records[0][1]


class TestTimeSeriesOnStore:
    def test_trend_report_matches_dict_backed(self, tmp_path):
        collection = NGramTimeSeriesCollection()
        rng = random.Random(9)
        for term in range(40):
            series = TimeSeries.from_mapping(
                {2000 + year: rng.randint(1, 30) for year in range(rng.randint(2, 8))}
            )
            collection.set((term, term + 1), series)
        store_dir = str(tmp_path / "ts-store")
        build_store(collection.to_records(), store_dir, store=StoreConfig(num_partitions=2))
        with NGramStore.open(store_dir) as store:
            backed = StoreBackedTimeSeriesCollection(store)
            assert len(backed) == len(collection)
            probe = (7, 8)
            assert backed.series(probe) == collection.series(probe)
            assert backed.series((999, 999)) == TimeSeries()
            assert probe in backed
            assert trend_report(backed) == trend_report(collection)


# ----------------------------------------------------------- e2e acceptance
class TestEndToEndAcceptance:
    RECORDS_PER_BLOCK = 64
    CACHE_BLOCKS = 4

    @pytest.fixture(scope="class")
    def corpus_and_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("e2e")
        corpus_dir = str(root / "corpus")
        store_dir = str(root / "store")
        assert (
            main(
                [
                    "generate",
                    "--dataset",
                    "nyt",
                    "--documents",
                    "40",
                    "--seed",
                    "7",
                    "--output",
                    corpus_dir,
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "count",
                    "--input",
                    corpus_dir,
                    "--tau",
                    "3",
                    "--sigma",
                    "4",
                    "--algorithm",
                    "APRIORI-SCAN",
                    "--materialize",
                    "disk",
                    "--store-dir",
                    store_dir,
                    "--store-codec",
                    "gzip",
                ]
            )
            == 0
        )
        return corpus_dir, store_dir

    def _reference_statistics(self, corpus_dir):
        from repro.corpus.io import read_encoded_collection

        collection = read_encoded_collection(corpus_dir)
        return (
            count_ngrams(
                collection, min_frequency=3, max_length=4, algorithm="APRIORI-SCAN"
            ).statistics,
            collection,
        )

    def test_store_matches_counting_run(self, corpus_and_store):
        corpus_dir, store_dir = corpus_and_store
        statistics, _ = self._reference_statistics(corpus_dir)
        with NGramStore.open(store_dir) as store:
            assert len(store) == len(statistics)
            assert dict(store.items()) == statistics.as_dict()
            assert list(store) == sorted(statistics.as_dict())

    def test_query_cli_prefix_and_top_k(self, corpus_and_store, capsys):
        corpus_dir, store_dir = corpus_and_store
        statistics, collection = self._reference_statistics(corpus_dir)
        top = statistics.top(5)
        assert main(["query", store_dir, "--top-k", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for (ngram, frequency), line in zip(top, lines):
            surface = " ".join(collection.vocabulary.term(t) for t in ngram)
            assert line.split(None, 1) == [str(frequency), surface]

        # Prefix query through the CLI, on the two most frequent terms.
        w1, w2 = (collection.vocabulary.term(index) for index in (0, 1))
        expected = {
            ngram: frequency
            for ngram, frequency in statistics.items()
            if ngram[:2] == (0, 1)
        }
        assert main(["query", store_dir, "--prefix", f"{w1} {w2}"]) == 0
        output = capsys.readouterr().out
        assert f"{len(expected)} n-grams with prefix" in output

        assert main(["query", store_dir, "--get", w1]) == 0
        line = capsys.readouterr().out.strip()
        assert line.split(None, 1) == [str(statistics.frequency((0,))), w1]

        # Out-of-vocabulary terms are a not-found result (1), not an error (2).
        assert main(["query", store_dir, "--get", "zzz-unseen-term zzz"]) == 1
        assert main(["query", store_dir, "--stats"]) == 0
        assert "APRIORI-SCAN" in capsys.readouterr().out

    def test_query_memory_bounded_by_block_cache(self, tmp_path):
        """Serving peaks at blocks x cache entries, not at the table size."""
        records = make_records(count=8000, seed=21, max_term=200)
        store_dir = str(tmp_path / "big-store")
        build_store(
            records,
            store_dir,
            store=StoreConfig(
                num_partitions=2, records_per_block=self.RECORDS_PER_BLOCK
            ),
        )
        rng = random.Random(4)
        probes = [rng.choice(records)[0] for _ in range(300)]

        def run_queries(store):
            for key in probes:
                store.get(key)
            for _ in store.prefix((0,)):
                pass
            store.top_k(10)

        with NGramStore.open(store_dir, cache_blocks=self.CACHE_BLOCKS) as store:
            with PeakMemoryTracker() as query_tracker:
                run_queries(store)
            hot_blocks = sum(
                min(store._table(index).num_blocks, self.CACHE_BLOCKS)
                for index in range(store.num_partitions)
            )
        with NGramStore.open(store_dir) as store:
            with PeakMemoryTracker() as materialize_tracker:
                everything = dict(store.items())
        assert len(everything) == len(records)
        # The query path must not materialise the store: random point
        # lookups across the whole key space, a prefix scan and a top-k
        # together stay well under the full-dict footprint...
        assert query_tracker.peak_bytes < materialize_tracker.peak_bytes / 4
        # ... because only cache-capacity blocks are ever resident: the
        # peak is a small multiple of block size x cache entries (frames,
        # decoded tuples and heap overhead give the slack factor).
        resident_records = hot_blocks * self.RECORDS_PER_BLOCK
        assert resident_records < len(records) / 4
        per_record_budget = 512  # generous bytes/record incl. Python overhead
        assert query_tracker.peak_bytes < resident_records * per_record_budget

    def test_counting_result_records_store_dir(self, tmp_path):
        collection = nytimes_like(num_documents=15, seed=2).build()
        store_dir = str(tmp_path / "store")
        from repro.algorithms import make_counter
        from repro.config import NGramJobConfig

        counter = make_counter("SUFFIX-SIGMA", NGramJobConfig(min_frequency=3, max_length=3))
        result = counter.run(collection, store_dir=store_dir)
        assert result.store_dir == store_dir
        with NGramStore.open(store_dir) as store:
            assert dict(store.items()) == result.statistics.as_dict()
            assert store.vocabulary is not None


# ------------------------------------------------------- top-k block skipping
def skewed_records(count=4096, block=64):
    """Sorted records whose frequency decays along the key order.

    Realistic shape: term identifiers are assigned in descending collection
    frequency, so low keys ~ frequent n-grams; the decay plus a little
    deterministic jitter concentrates the global top-k in the first blocks.
    """
    rng = random.Random(99)
    return [
        ((index // 7, index % 7, index), max(1, count - index + rng.randint(0, 3)))
        for index in range(count)
    ]


class TestTopKBlockSkipping:
    BLOCK = 64

    @pytest.fixture()
    def skewed_store(self, tmp_path):
        store_dir = str(tmp_path / "skewed")
        build_store(
            skewed_records(block=self.BLOCK),
            store_dir,
            store=StoreConfig(num_partitions=3, records_per_block=self.BLOCK),
        )
        return store_dir

    def test_summaries_persisted_in_block_index(self, tmp_path):
        records = skewed_records(count=512)
        path = str(tmp_path / "t.ngt")
        with TableWriter(path, records_per_block=64) as writer:
            writer.extend(records)
        with Table(path) as table:
            for entry in table._index:
                block_values = [
                    value
                    for key, value in records
                    if entry.first_key <= key <= entry.last_key
                ]
                assert entry.max_value == max(block_values)

    def test_non_numeric_blocks_have_no_summary(self, tmp_path):
        path = str(tmp_path / "ts.ngt")
        with TableWriter(path, records_per_block=4) as writer:
            writer.extend([((index,), {"year": index}) for index in range(10)])
        with Table(path) as table:
            assert all(entry.max_value is None for entry in table._index)

    def test_top_k_skips_blocks_and_matches_full_scan(self, skewed_store):
        from repro.ngramstore import TopKAccumulator

        records = skewed_records(block=self.BLOCK)
        expected = sorted(records, key=lambda record: (-record[1], record[0]))[:10]
        with NGramStore.open(skewed_store) as store:
            assert store.top_k(10) == expected
            accumulator = TopKAccumulator(10)
            store.top_k_into(accumulator)
            total_blocks = sum(
                store._table(index).num_blocks for index in range(store.num_partitions)
            )
            assert accumulator.blocks_scanned + accumulator.blocks_skipped == total_blocks
            assert accumulator.blocks_skipped > 0
            assert accumulator.blocks_scanned < total_blocks
            assert accumulator.results() == expected

    def test_skipping_equals_streaming_reference_on_random_values(self, tmp_path, records):
        """Random (unskewed) values: skipping must still be exact."""
        store_dir = str(tmp_path / "random")
        build_store(records, store_dir, store=StoreConfig(num_partitions=2, records_per_block=16))
        with NGramStore.open(store_dir) as store:
            for k in (1, 3, 25, len(records) + 10):
                assert store.top_k(k) == top_k_records(iter(records), k, "frequency")

    def test_key_order_early_exit(self, skewed_store):
        records = skewed_records(block=self.BLOCK)
        with NGramStore.open(skewed_store) as store:
            assert store.top_k(5, order="key") == records[:5]
            # Early exit: only the first block of the first partition is read.
            stats = store.cache_stats()
            assert stats.misses == 1

    def test_accumulator_tie_break_matches_nsmallest(self):
        from repro.ngramstore import TopKAccumulator

        records = [((2,), 5), ((1,), 5), ((3,), 9), ((0,), 5)]
        accumulator = TopKAccumulator(3)
        for key, value in records:
            accumulator.offer(key, value)
        assert accumulator.results() == top_k_records(iter(records), 3, "frequency")


class TestSharedBlockCache:
    def test_two_tables_share_one_cache(self, tmp_path, records):
        half = len(records) // 2
        paths = []
        for index, chunk in enumerate((records[:half], records[half:])):
            path = str(tmp_path / f"t{index}.ngt")
            with TableWriter(path, records_per_block=8) as writer:
                writer.extend(chunk)
            paths.append(path)
        cache = BlockCache(4)
        with Table(paths[0], cache=cache) as first, Table(paths[1], cache=cache) as second:
            for key, value in records[::9]:
                table = first if key <= first.max_key else second
                assert table.get(key) == value
            assert len(cache) <= 4
            stats = cache.stats_snapshot()
            assert stats.hits + stats.misses == len(records[::9])
            # Closing one table does not wipe the other's shared entries.
            first.close()
            assert len(cache) > 0


# ------------------------------------------------------------ helper checks
class TestTopKRecords:
    def test_frequency_tie_break_matches_statistics_top(self):
        records = [((2,), 5), ((1,), 5), ((3,), 9)]
        assert top_k_records(iter(records), 2, "frequency") == [((3,), 9), ((1,), 5)]

    def test_key_order(self):
        records = [((2,), 5), ((1,), 5), ((3,), 9)]
        assert top_k_records(iter(records), 2, "key") == [((1,), 5), ((2,), 5)]


# ----------------------------------------------------- bloom + mmap fast path
class TestBloomFilteredReads:
    def test_blooms_persisted_per_block(self, tmp_path, records):
        path = str(tmp_path / "bloomed.ngt")
        with TableWriter(path, records_per_block=32) as writer:
            writer.extend(records)
        with Table(path) as table:
            assert all(entry.bloom is not None for entry in table._index)

    def test_point_miss_decodes_zero_blocks(self, tmp_path, records):
        """The fast path the filters exist for: a filtered miss is free."""
        path = str(tmp_path / "bloomed.ngt")
        with TableWriter(path, records_per_block=32) as writer:
            writer.extend(records)
        present = {key for key, _ in records}
        with Table(path) as table:
            # In-range misses (so the index alone cannot reject them) that
            # the filter screens out: each must touch zero data blocks.
            rng = random.Random(7)
            filtered_misses = 0
            while filtered_misses < 20:
                key = tuple(rng.randint(0, 40) for _ in range(3))
                if key in present or not table.min_key <= key <= table.max_key:
                    continue
                before = table.blocks_decoded
                if table.get(key) is None and table.blocks_decoded == before:
                    filtered_misses += 1
            assert table.bloom_rejections >= filtered_misses
            # Hits are never filtered out (no false negatives end to end).
            for key, value in records[::17]:
                assert table.get(key) == value

    def test_bloom_disabled_reads_identically(self, tmp_path, records):
        plain = str(tmp_path / "plain.ngt")
        with TableWriter(plain, records_per_block=32, bloom_bits_per_key=0) as writer:
            writer.extend(records)
        with Table(plain) as table:
            assert all(entry.bloom is None for entry in table._index)
            assert list(table) == records
            assert table.get((999, 999)) is None
            assert table.bloom_rejections == 0

    def test_writer_rejects_negative_budget(self, tmp_path):
        with pytest.raises(StoreError, match="bloom_bits_per_key"):
            TableWriter(str(tmp_path / "t.ngt"), bloom_bits_per_key=-1)


class TestMmapReads:
    def test_mmap_active_and_identical_to_file_io(self, tmp_path, records):
        path = str(tmp_path / "table.ngt")
        with TableWriter(path, records_per_block=32) as writer:
            writer.extend(records)
        with Table(path, use_mmap=True) as mapped, Table(path, use_mmap=False) as plain:
            assert mapped.mmap_active
            assert not plain.mmap_active
            assert list(mapped) == list(plain) == records
            probes = [key for key, _ in records[::11]] + [(999, 999)]
            assert [mapped.get(key) for key in probes] == [
                plain.get(key) for key in probes
            ]
            assert mapped.top_k(8) == plain.top_k(8)

    def test_compressed_tables_fall_back_to_file_io(self, tmp_path, records):
        path = str(tmp_path / "compressed.ngt")
        with TableWriter(path, records_per_block=32, codec="gzip") as writer:
            writer.extend(records)
        with Table(path, use_mmap=True) as table:
            assert not table.mmap_active  # zero-copy needs uncompressed blocks
            assert list(table) == records

    def test_store_threads_mmap_flag_and_reports_io_stats(self, tmp_path, records):
        store_dir = str(tmp_path / "store")
        build_store(
            records, store_dir, store=StoreConfig(num_partitions=3, records_per_block=16)
        )
        with NGramStore.open(store_dir) as mapped, NGramStore.open(
            store_dir, use_mmap=False
        ) as plain:
            assert [mapped.get(key) for key, _ in records[::7]] == [
                plain.get(key) for key, _ in records[::7]
            ]
            assert list(mapped.items()) == list(plain.items())
            mapped_stats = mapped.io_stats()
            assert mapped_stats["mmap_partitions"] == 3
            assert mapped_stats["blocks_decoded"] > 0
            assert plain.io_stats()["mmap_partitions"] == 0

    def test_store_point_misses_skip_decoding(self, tmp_path, records):
        store_dir = str(tmp_path / "store")
        build_store(
            records, store_dir, store=StoreConfig(num_partitions=2, records_per_block=16)
        )
        present = {key for key, _ in records}
        with NGramStore.open(store_dir) as store:
            rng = random.Random(31)
            misses = 0
            while misses < 50:
                key = tuple(rng.randint(0, 40) for _ in range(3))
                if key in present:
                    continue
                assert store.get(key) is None
                misses += 1
            assert store.io_stats()["bloom_rejections"] > 0


# ------------------------------------------------------------ format version
class TestFormatVersion:
    def test_version_1_table_is_refused_by_name(self, tmp_path, records, monkeypatch):
        """Version-1 Bloom filters were built with another hash: fail closed.

        Probing such a filter with today's hash would answer "absent" for
        present keys, so the reader refuses the table instead of serving it.
        """
        from repro.ngramstore import table as table_module

        path = str(tmp_path / "v1.ngt")
        with monkeypatch.context() as patch:
            patch.setattr(table_module, "FORMAT_VERSION", 1)
            with TableWriter(path, records_per_block=32) as writer:
                writer.extend(records)
        with pytest.raises(StoreError, match=r"unsupported table format version 1 \(expected 2\)"):
            Table(path)

    def test_current_version_is_2_and_opens(self, tmp_path, records):
        path = str(tmp_path / "v2.ngt")
        with TableWriter(path, records_per_block=32) as writer:
            writer.extend(records)
        with open(path, "rb") as handle:
            assert read_footer(handle)["version"] == FORMAT_VERSION == 2
        with Table(path) as table:
            assert list(table) == records


# ------------------------------------------------------- per-block checksums
class TestBlockChecksums:
    def write_table(self, tmp_path, records, **kwargs):
        path = str(tmp_path / "table.ngt")
        with TableWriter(path, records_per_block=32, **kwargs) as writer:
            writer.extend(records)
        return path

    def corrupt_block(self, path, offset, length):
        """Flip one byte in the middle of the block at ``offset``."""
        position = offset + length // 2
        with open(path, "r+b") as handle:
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_checksums_persisted_per_block(self, tmp_path, records):
        path = self.write_table(tmp_path, records)
        with Table(path) as table:
            assert all(isinstance(entry.checksum, int) for entry in table._index)
            # Clean reads never trip the counter.
            assert list(table) == records
            assert table.blocks_checksum_failed == 0

    @pytest.mark.parametrize("use_mmap", [True, False])
    def test_corruption_detected_on_both_read_paths(self, tmp_path, records, use_mmap):
        """The CRC check runs before decode on mmap views and seek+read alike."""
        path = self.write_table(tmp_path, records)
        with Table(path) as table:
            entry = table._index[0]
        self.corrupt_block(path, entry.offset, entry.length)
        with Table(path, use_mmap=use_mmap) as table:
            with pytest.raises(StoreError, match="checksum mismatch"):
                table.get(records[0][0])
            assert table.blocks_checksum_failed == 1
            # Undamaged blocks in the same table still serve.
            last_block_key = table._index[-1].first_key
            assert table.get(last_block_key) is not None

    def test_corruption_detected_under_compression(self, tmp_path, records):
        """The CRC covers the *stored* payload, compressed or not."""
        path = self.write_table(tmp_path, records, codec="gzip")
        with Table(path) as table:
            entry = table._index[0]
        self.corrupt_block(path, entry.offset, entry.length)
        with Table(path) as table:
            with pytest.raises(StoreError, match="checksum mismatch"):
                table.get(records[0][0])

    def test_store_error_names_partition(self, tmp_path, records):
        """Corruption in a store partition is reported with its identity."""
        store_dir = str(tmp_path / "store")
        build_store(
            records, store_dir, store=StoreConfig(num_partitions=2, records_per_block=32)
        )
        with NGramStore.open(store_dir) as store:
            table = store._table(1)
            entry = table._index[0]
            victim_path, first_key = table.path, entry.first_key
            offset, length = entry.offset, entry.length
        self.corrupt_block(victim_path, offset, length)
        with NGramStore.open(store_dir) as store:
            with pytest.raises(StoreError, match="partition 1"):
                store.get(first_key)
            assert store.io_stats()["blocks_checksum_failed"] == 1
            # The undamaged partition still serves.
            for key, value in records[:20]:
                if store._partition_for(key) == 0:
                    assert store.get(key) == value
                    break

    def _write_with_index(self, tmp_path, monkeypatch, records, rewrite, **kwargs):
        """A table whose index entries went through ``rewrite`` before pickling."""
        import repro.ngramstore.format as format_module
        import repro.ngramstore.table as table_module

        real_write_index = format_module.write_index
        # TableWriter resolves write_index from its own module namespace.
        monkeypatch.setattr(
            table_module,
            "write_index",
            lambda handle, index: real_write_index(
                handle, [rewrite(tuple(entry)) for entry in index]
            ),
        )
        path = self.write_table(tmp_path, records, **kwargs)
        monkeypatch.undo()
        return path

    @pytest.mark.parametrize("fields", [5, 6, 7])
    def test_short_index_entries_are_refused(self, tmp_path, monkeypatch, records, fields):
        """Index entries of the pre-summary/-bloom/-checksum formats do not load."""
        path = self._write_with_index(
            tmp_path, monkeypatch, records, lambda entry: entry[:fields]
        )
        with pytest.raises(StoreError, match="malformed table block index"):
            Table(path)

    def test_index_without_checksums_is_refused(self, tmp_path, monkeypatch, records):
        """A v2 table whose index lost its CRCs is never served unverified."""
        path = self._write_with_index(
            tmp_path,
            monkeypatch,
            records,
            lambda entry: entry[:7] + (None,),
            metadata={"partition": 3},
        )
        with Table(path) as table:
            with pytest.raises(
                StoreError, match=r"checksum mismatch in block 0 \(partition 3, .*stored none"
            ):
                table.get(records[0][0])
            with pytest.raises(StoreError, match="checksum mismatch in block 0"):
                list(table)
            assert table.blocks_checksum_failed == 2


"""Tests for the spill-to-disk external shuffle."""

import io
import os

import pytest

from repro.exceptions import MapReduceError
from repro.mapreduce.counters import SHUFFLE_SPILLS, SPILLED_BYTES, SPILLED_RECORDS
from repro.mapreduce.job import Partitioner, SortComparator
from repro.mapreduce.runner import LocalJobRunner
from repro.mapreduce.serialization import read_framed_records, write_framed_record
from repro.mapreduce.shuffle import ExternalShuffle, sort_partition
from repro.ngrams.ordering import ReverseLexicographicOrder

from tests.test_runner import WORDS_INPUT, word_count_job


RECORDS = [(("t%d" % (index % 7),), index) for index in range(200)]


class TestFramedRecords:
    def test_roundtrip(self):
        buffer = io.BytesIO()
        records = [(("a", "b"), 1), (("c",), [2, 3]), ("text", {"k": 4})]
        written = sum(write_framed_record(buffer, key, value) for key, value in records)
        assert written == buffer.tell()
        buffer.seek(0)
        assert list(read_framed_records(buffer)) == records

    def test_empty_stream(self):
        assert list(read_framed_records(io.BytesIO(b""))) == []

    def test_truncated_frame_is_detected(self):
        buffer = io.BytesIO()
        write_framed_record(buffer, ("a",), 1)
        data = buffer.getvalue()
        from repro.exceptions import SerializationError

        with pytest.raises(SerializationError):
            list(read_framed_records(io.BytesIO(data[:-1])))


class TestExternalShuffle:
    def _shuffle(self, threshold, comparator=None):
        return ExternalShuffle(
            Partitioner(),
            comparator if comparator is not None else SortComparator(),
            num_partitions=3,
            spill_threshold_bytes=threshold,
        )

    def _expected_partitions(self, records, comparator=None):
        comparator = comparator if comparator is not None else SortComparator()
        partitions = [[], [], []]
        partitioner = Partitioner()
        for key, value in records:
            partitions[partitioner.partition(key, 3)].append((key, value))
        return [sort_partition(partition, comparator) for partition in partitions]

    def test_no_threshold_never_spills(self):
        with self._shuffle(None) as shuffle:
            shuffle.add_records(RECORDS)
            shuffle.finalize()
            assert not shuffle.spilled
            merged = [
                list(shuffle.partition_input(index).sorted_records(SortComparator()))
                for index in range(3)
            ]
        assert merged == self._expected_partitions(RECORDS)

    def test_reduce_input_is_the_partition_buffer_not_a_copy(self):
        """Describing a partition must not duplicate its buffered records."""
        with self._shuffle(None) as shuffle:
            shuffle.add_records(RECORDS)
            shuffle.finalize()
            for index in range(3):
                first = shuffle.partition_input(index)
                assert first.records, "every partition should hold records"
                assert shuffle.partition_input(index).records is first.records

    def test_hand_off_writes_runs_without_counting_a_spill(self):
        """``finalize(spill_remainder=True)`` below the budget moves every
        record to run files and leaves the spill statistics untouched."""
        with self._shuffle(None) as shuffle:
            shuffle.add_records(RECORDS)
            shuffle.finalize(spill_remainder=True)
            assert not shuffle.spilled
            assert shuffle.stats.spilled_records == shuffle.stats.spilled_bytes == 0
            inputs = shuffle.partition_inputs()
            assert all(partition.run_paths and not partition.records for partition in inputs)
            merged = [list(partition.sorted_records(SortComparator())) for partition in inputs]
        assert merged == self._expected_partitions(RECORDS)

    def test_tiny_threshold_spills_multiple_runs(self):
        """A threshold far below the shuffle volume forces >= 2 merged runs."""
        with self._shuffle(64) as shuffle:
            shuffle.add_records(RECORDS)
            shuffle.finalize()
            assert shuffle.spilled
            assert shuffle.stats.num_spills >= 2
            assert shuffle.stats.spilled_records == len(RECORDS)
            inputs = shuffle.partition_inputs()
            # After a spill the remainder is flushed too: everything on disk.
            assert all(not partition.records for partition in inputs)
            assert any(len(partition.run_paths) >= 2 for partition in inputs)
            merged = [
                list(partition.sorted_records(SortComparator())) for partition in inputs
            ]
            assert merged == self._expected_partitions(RECORDS)

    def test_spilled_merge_matches_in_memory_sort_with_custom_comparator(self):
        comparator = ReverseLexicographicOrder()
        records = [((term, "x"), index) for index, term in enumerate("edcbaabcde")]
        with self._shuffle(16, comparator) as shuffle:
            shuffle.add_records(records)
            shuffle.finalize()
            assert shuffle.spilled
            merged = [
                list(partition.sorted_records(comparator))
                for partition in shuffle.partition_inputs()
            ]
        assert merged == self._expected_partitions(records, comparator)

    def test_fan_in_capped_merge_matches_direct_merge(self, monkeypatch):
        """With more runs than MERGE_FAN_IN, intermediate passes keep the result identical."""
        import repro.mapreduce.shuffle as shuffle_module

        monkeypatch.setattr(shuffle_module, "MERGE_FAN_IN", 3)
        with self._shuffle(16) as shuffle:
            shuffle.add_records(RECORDS)
            shuffle.finalize()
            assert any(
                len(partition.run_paths) > 3 for partition in shuffle.partition_inputs()
            )
            merged = [
                list(partition.sorted_records(SortComparator()))
                for partition in shuffle.partition_inputs()
            ]
        assert merged == self._expected_partitions(RECORDS)

    def test_merge_falls_back_when_fast_key_rejects_keys(self):
        """String keys with an integer-oriented fast key use the comparator path."""

        class IntegerOnlyComparator(SortComparator):
            def sort_key_function(self):
                return lambda key: key + 0  # TypeError for the string keys below

        comparator = IntegerOnlyComparator()
        with self._shuffle(16, comparator) as shuffle:
            shuffle.add_records(RECORDS)
            shuffle.finalize()
            assert shuffle.spilled
            merged = [
                list(partition.sorted_records(comparator))
                for partition in shuffle.partition_inputs()
            ]
        assert merged == self._expected_partitions(RECORDS, comparator)

    def test_merge_is_stable_for_equal_keys(self):
        records = [(("dup",), index) for index in range(50)]
        with self._shuffle(32) as shuffle:
            shuffle.add_records(records)
            shuffle.finalize()
            assert shuffle.stats.num_spills >= 2
            partitioner_index = Partitioner().partition(("dup",), 3)
            merged = list(
                shuffle.partition_input(partitioner_index).sorted_records(SortComparator())
            )
        # Equal keys keep their emission order across spilled runs.
        assert [value for _, value in merged] == list(range(50))

    def test_cleanup_removes_run_files(self):
        shuffle = self._shuffle(32)
        shuffle.add_records(RECORDS)
        shuffle.finalize()
        paths = [path for partition in shuffle.partition_inputs() for path in partition.run_paths]
        assert paths and all(os.path.exists(path) for path in paths)
        shuffle.cleanup()
        assert not any(os.path.exists(path) for path in paths)

    def test_cleanup_removes_run_files_in_explicit_spill_dir(self, tmp_path):
        spill_dir = str(tmp_path / "spills")
        first = ExternalShuffle(
            Partitioner(), SortComparator(), 3, spill_threshold_bytes=32, spill_dir=spill_dir
        )
        second = ExternalShuffle(
            Partitioner(), SortComparator(), 3, spill_threshold_bytes=32, spill_dir=spill_dir
        )
        for shuffle in (first, second):
            shuffle.add_records(RECORDS)
            shuffle.finalize()
        first_paths = [
            path for partition in first.partition_inputs() for path in partition.run_paths
        ]
        second_paths = [
            path for partition in second.partition_inputs() for path in partition.run_paths
        ]
        # Concurrent shuffles sharing one spill_dir must not clobber each other.
        assert not set(first_paths) & set(second_paths)
        assert all(os.path.exists(path) for path in first_paths + second_paths)
        first.cleanup()
        assert not any(os.path.exists(path) for path in first_paths)
        assert all(os.path.exists(path) for path in second_paths)
        second.cleanup()
        assert not any(os.path.exists(path) for path in second_paths)

    def test_add_after_finalize_fails(self):
        shuffle = self._shuffle(None)
        shuffle.finalize()
        with pytest.raises(MapReduceError):
            shuffle.add(("a",), 1)

    def test_invalid_arguments(self):
        with pytest.raises(MapReduceError):
            ExternalShuffle(Partitioner(), SortComparator(), 0)
        with pytest.raises(MapReduceError):
            ExternalShuffle(Partitioner(), SortComparator(), 2, spill_threshold_bytes=0)


class TestSpillingRunner:
    def test_local_runner_spill_matches_default(self):
        baseline = LocalJobRunner().run(word_count_job(), WORDS_INPUT)
        spilling = LocalJobRunner(spill_threshold_bytes=8).run(word_count_job(), WORDS_INPUT)
        assert spilling.output == baseline.output
        assert spilling.partition_output == baseline.partition_output
        assert spilling.counters.get(SHUFFLE_SPILLS) >= 2
        assert spilling.counters.get(SPILLED_RECORDS) > 0
        assert spilling.counters.get(SPILLED_BYTES) > 8

    def test_no_spill_keeps_counters_unchanged(self):
        baseline = LocalJobRunner().run(word_count_job(), WORDS_INPUT)
        high_threshold = LocalJobRunner(spill_threshold_bytes=10_000_000).run(
            word_count_job(), WORDS_INPUT
        )
        assert high_threshold.counters.as_dict() == baseline.counters.as_dict()
        assert baseline.counters.get(SHUFFLE_SPILLS) == 0


class TestRecordCountSpillBudget:
    def test_record_budget_triggers_spills(self):
        shuffle = ExternalShuffle(
            Partitioner(),
            SortComparator(),
            num_partitions=3,
            spill_threshold_records=10,
        )
        with shuffle:
            shuffle.add_records(RECORDS)
            shuffle.finalize()
            assert shuffle.spilled
            assert shuffle.stats.num_spills >= len(RECORDS) // 11
            assert shuffle.stats.spilled_records == len(RECORDS)
            assert shuffle.stats.spilled_bytes > 0
            merged = [
                list(partition.sorted_records(SortComparator()))
                for partition in shuffle.partition_inputs()
            ]
        expected = TestExternalShuffle()._expected_partitions(RECORDS)
        assert merged == expected

    def test_record_budget_output_identical_to_byte_budget(self):
        results = []
        for kwargs in (
            {"spill_threshold_bytes": 64},
            {"spill_threshold_records": 7},
            {},
        ):
            shuffle = ExternalShuffle(
                Partitioner(), SortComparator(), num_partitions=3, **kwargs
            )
            with shuffle:
                shuffle.add_records(RECORDS)
                shuffle.finalize()
                results.append(
                    [
                        list(partition.sorted_records(SortComparator()))
                        for partition in shuffle.partition_inputs()
                    ]
                )
        assert results[0] == results[1] == results[2]

    def test_invalid_record_budget(self):
        with pytest.raises(MapReduceError):
            ExternalShuffle(
                Partitioner(), SortComparator(), 2, spill_threshold_records=0
            )


class TestSpillCodec:
    def test_gzip_spills_merge_byte_identically(self):
        plain_shuffle = ExternalShuffle(
            Partitioner(), SortComparator(), 3, spill_threshold_bytes=64
        )
        gzip_shuffle = ExternalShuffle(
            Partitioner(), SortComparator(), 3, spill_threshold_bytes=64, codec="gzip"
        )
        outputs = []
        for shuffle in (plain_shuffle, gzip_shuffle):
            with shuffle:
                shuffle.add_records(RECORDS)
                shuffle.finalize()
                assert shuffle.spilled
                outputs.append(
                    [
                        list(partition.sorted_records(SortComparator()))
                        for partition in shuffle.partition_inputs()
                    ]
                )
        assert outputs[0] == outputs[1]

    def test_partition_input_carries_codec(self):
        shuffle = ExternalShuffle(
            Partitioner(), SortComparator(), 2, spill_threshold_bytes=64, codec="gzip"
        )
        with shuffle:
            shuffle.add_records(RECORDS)
            shuffle.finalize()
            for partition in shuffle.partition_inputs():
                assert partition.codec == "gzip"

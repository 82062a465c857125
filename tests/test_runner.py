"""Tests for the local MapReduce job runner."""

import importlib
from typing import Any, Iterable

import pytest

from repro.cli import main
from repro.config import RUNNER_NAMES, ExecutionConfig
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.counters import (
    Counters,
    COMBINE_OUTPUT_RECORDS,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_BYTES,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    REDUCE_OUTPUT_RECORDS,
)
from repro.mapreduce.dataset import MemoryDataset
from repro.mapreduce.job import Combiner, JobSpec, Mapper, Partitioner, Reducer, TaskContext
from repro.mapreduce.process import ProcessPoolJobRunner
from repro.mapreduce.runner import LocalJobRunner
from repro.exceptions import ConfigurationError, MapReduceError


class WordCountMapper(Mapper):
    def map(self, key: Any, value: Iterable[str], context: TaskContext) -> None:
        for word in value:
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key: Any, values: Iterable[int], context: TaskContext) -> None:
        context.emit(key, sum(values))


class SumCombiner(Combiner):
    def reduce(self, key: Any, values: Iterable[int], context: TaskContext) -> None:
        context.emit(key, sum(values))


def word_count_job(**overrides) -> JobSpec:
    spec = dict(
        name="word-count",
        mapper_factory=WordCountMapper,
        reducer_factory=SumReducer,
        num_reducers=3,
    )
    spec.update(overrides)
    return JobSpec(**spec)


WORDS_INPUT = [
    (0, ("to", "be", "or", "not", "to", "be")),
    (1, ("to", "see", "or", "not")),
    (2, ("be", "here", "now")),
]
EXPECTED_COUNTS = {
    "to": 3,
    "be": 3,
    "or": 2,
    "not": 2,
    "see": 1,
    "here": 1,
    "now": 1,
}


class TestSplitInput:
    def test_empty_input_single_split(self):
        assert MemoryDataset([]).split(4) == [[]]

    def test_split_count_capped_by_records(self):
        records = [(i, i) for i in range(3)]
        splits = MemoryDataset(records).split(10)
        assert len(splits) == 3

    def test_all_records_preserved(self):
        records = [(i, i) for i in range(17)]
        splits = MemoryDataset(records).split(4)
        assert len(splits) == 4
        assert [record for split in splits for record in split] == records

    def test_balanced_sizes(self):
        splits = MemoryDataset([(i, i) for i in range(10)]).split(3)
        sizes = sorted(len(split) for split in splits)
        assert sizes == [3, 3, 4]


class TestLocalJobRunner:
    def test_word_count(self):
        result = LocalJobRunner().run(word_count_job(), WORDS_INPUT)
        assert result.output_as_dict() == EXPECTED_COUNTS

    def test_counters(self):
        result = LocalJobRunner().run(word_count_job(), WORDS_INPUT)
        counters = result.counters
        assert counters.get(MAP_INPUT_RECORDS) == 3
        assert counters.get(MAP_OUTPUT_RECORDS) == 13
        assert counters.get(MAP_OUTPUT_BYTES) > 0
        assert counters.get(REDUCE_INPUT_GROUPS) == len(EXPECTED_COUNTS)
        assert counters.get(REDUCE_OUTPUT_RECORDS) == len(EXPECTED_COUNTS)

    def test_combiner_reduces_shuffled_records_not_map_output(self):
        with_combiner = LocalJobRunner().run(
            word_count_job(combiner_factory=SumCombiner, num_map_tasks=1), WORDS_INPUT
        )
        without_combiner = LocalJobRunner().run(
            word_count_job(num_map_tasks=1), WORDS_INPUT
        )
        assert with_combiner.output_as_dict() == without_combiner.output_as_dict()
        assert with_combiner.counters.get(MAP_OUTPUT_RECORDS) == without_combiner.counters.get(
            MAP_OUTPUT_RECORDS
        )
        assert with_combiner.counters.get(COMBINE_OUTPUT_RECORDS) < with_combiner.counters.get(
            MAP_OUTPUT_RECORDS
        )

    def test_partition_output_matches_num_reducers(self):
        result = LocalJobRunner().run(word_count_job(num_reducers=5), WORDS_INPUT)
        assert len(result.partition_output) == 5
        flattened = {key: value for partition in result.partition_output for key, value in partition}
        assert flattened == EXPECTED_COUNTS

    def test_same_key_always_in_same_partition(self):
        result = LocalJobRunner().run(word_count_job(num_reducers=4), WORDS_INPUT)
        seen = {}
        for index, partition in enumerate(result.partition_output):
            for key, _ in partition:
                assert seen.setdefault(key, index) == index

    def test_empty_input(self):
        result = LocalJobRunner().run(word_count_job(), [])
        assert result.output == []
        assert result.is_empty()

    def test_metrics_structure(self):
        result = LocalJobRunner().run(word_count_job(num_map_tasks=2), WORDS_INPUT)
        assert result.metrics.num_map_tasks == 2
        assert result.metrics.num_reduce_tasks == 3
        assert result.metrics.map_output_records == 13
        assert result.metrics.map_output_bytes == result.counters.get(MAP_OUTPUT_BYTES)
        assert result.elapsed_seconds >= 0

    def test_reducer_state_is_per_partition(self):
        class CountKeysReducer(Reducer):
            def __init__(self):
                self.keys_seen = 0

            def reduce(self, key, values, context):
                self.keys_seen += 1

            def cleanup(self, context):
                context.emit("keys-in-partition", self.keys_seen)

        class AllToOnePartitioner(Partitioner):
            def partition(self, key, num_partitions):
                return 0

        job = word_count_job(
            reducer_factory=CountKeysReducer,
            partitioner=AllToOnePartitioner(),
            num_reducers=2,
        )
        result = LocalJobRunner().run(job, WORDS_INPUT)
        by_partition = [dict(partition) for partition in result.partition_output]
        assert by_partition[0]["keys-in-partition"] == len(EXPECTED_COUNTS)
        assert by_partition[1]["keys-in-partition"] == 0

    def test_mapper_setup_and_cleanup_called_once_per_task(self):
        calls = {"setup": 0, "cleanup": 0}

        class TrackingMapper(WordCountMapper):
            def setup(self, context):
                calls["setup"] += 1

            def cleanup(self, context):
                calls["cleanup"] += 1

        job = word_count_job(mapper_factory=TrackingMapper, num_map_tasks=3)
        LocalJobRunner().run(job, WORDS_INPUT)
        assert calls == {"setup": 3, "cleanup": 3}

    def test_cache_visible_to_tasks(self):
        cache = DistributedCache()
        cache.publish("stopwords", {"to", "or", "not"})

        class FilteringMapper(Mapper):
            def setup(self, context):
                self.stopwords = context.cache.get("stopwords")

            def map(self, key, value, context):
                for word in value:
                    if word not in self.stopwords:
                        context.emit(word, 1)

        job = word_count_job(mapper_factory=FilteringMapper)
        result = LocalJobRunner(cache=cache).run(job, WORDS_INPUT)
        assert set(result.output_as_dict()) == {"be", "see", "here", "now"}

    def test_invalid_default_map_tasks(self):
        with pytest.raises(MapReduceError):
            LocalJobRunner(default_map_tasks=0)

    def test_output_keys_property(self):
        result = LocalJobRunner().run(word_count_job(), WORDS_INPUT)
        assert sorted(result.output_keys) == sorted(EXPECTED_COUNTS)


class TestOneRunLoop:
    """The architecture: one ``run()``, two executors, one map-output path."""

    def test_process_runner_inherits_the_run_loop(self):
        assert ProcessPoolJobRunner.run is LocalJobRunner.run

    def test_pooled_template_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.mapreduce.parallel")

    def test_threads_backend_is_gone(self, tmp_path):
        assert RUNNER_NAMES == ("local", "processes")
        with pytest.raises(ConfigurationError, match="runner must be one of"):
            ExecutionConfig(runner="threads")
        with pytest.raises(SystemExit) as excinfo:
            main(["count", "--input", str(tmp_path), "--runner", "threads"])
        assert excinfo.value.code == 2

    def test_map_task_requires_a_shuffle(self):
        """There is no collect-the-records mode to fall back to."""
        runner = LocalJobRunner()
        with pytest.raises(TypeError, match="shuffle"):
            runner._run_map_task(word_count_job(), 0, WORDS_INPUT, Counters())

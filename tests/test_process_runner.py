"""Tests for the process-pool job runner (multi-core backend).

The process backend must be a drop-in replacement for the sequential
runner: identical output, partition output and counter totals, plus the
engine-level error contract — shared with the sequential runner — that task
failures surface as :class:`MapReduceError` with job/task identity (a
:class:`ReproError` raised by a task unchanged), and unpicklable job
components are diagnosed by name.  Map output reaches the parent as run
files only, with or without a spill budget.
"""

import os

from typing import Any, Iterable

import pytest

from repro.algorithms.suffix_sigma import SuffixSigmaCounter
from repro.config import NGramJobConfig
from repro.exceptions import MapReduceError, StoreError
from repro.mapreduce import runner as runner_module
from repro.mapreduce.counters import (
    MAP_OUTPUT_BYTES,
    MAP_OUTPUT_RECORDS,
    SHUFFLE_SPILLS,
    SPILLED_BYTES,
    SPILLED_RECORDS,
)
from repro.mapreduce.job import Mapper, Partitioner, TaskContext
from repro.mapreduce.pipeline import JobPipeline
from repro.mapreduce.process import ProcessPoolJobRunner
from repro.mapreduce.runner import LocalJobRunner
from repro.mapreduce.shuffle import MapTaskSpills

from tests.test_runner import (
    EXPECTED_COUNTS,
    WORDS_INPUT,
    SumCombiner,
    SumReducer,
    word_count_job,
)


class ExplodingMapper(Mapper):
    """Mapper that fails on every record (picklable, unlike a local class)."""

    def map(self, key: Any, value: Iterable[str], context: TaskContext) -> None:
        raise ValueError("boom")


class RefusingMapper(Mapper):
    """Mapper raising one of the library's own errors."""

    def map(self, key: Any, value: Iterable[str], context: TaskContext) -> None:
        raise StoreError("refused")


class BrokenPartitioner(Partitioner):
    """Partitioner returning an out-of-range index (picklable for workers)."""

    def partition(self, key: Any, num_partitions: int) -> int:
        return num_partitions


class TestProcessPoolJobRunner:
    def test_invalid_worker_count(self):
        with pytest.raises(MapReduceError):
            ProcessPoolJobRunner(max_workers=0)

    def test_word_count_matches_sequential(self):
        sequential = LocalJobRunner().run(word_count_job(), WORDS_INPUT)
        parallel = ProcessPoolJobRunner(max_workers=2).run(word_count_job(), WORDS_INPUT)
        assert parallel.output_as_dict() == sequential.output_as_dict() == EXPECTED_COUNTS

    def test_counters_match_sequential(self):
        job = word_count_job(combiner_factory=SumCombiner, num_map_tasks=3)
        sequential = LocalJobRunner().run(job, WORDS_INPUT)
        parallel = ProcessPoolJobRunner(max_workers=2).run(job, WORDS_INPUT)
        assert parallel.counters.as_dict() == sequential.counters.as_dict()

    def test_partition_outputs_match_sequential(self):
        job = word_count_job(num_reducers=4)
        sequential = LocalJobRunner().run(job, WORDS_INPUT)
        parallel = ProcessPoolJobRunner(max_workers=2).run(job, WORDS_INPUT)
        assert parallel.partition_output == sequential.partition_output

    def test_metrics_cover_all_tasks(self):
        job = word_count_job(num_map_tasks=3, num_reducers=2)
        result = ProcessPoolJobRunner(max_workers=2).run(job, WORDS_INPUT)
        assert result.metrics.num_map_tasks == 3
        assert result.metrics.num_reduce_tasks == 2
        assert result.counters.get(MAP_OUTPUT_RECORDS) == 13
        assert result.counters.get(MAP_OUTPUT_BYTES) > 0

    def test_empty_input(self):
        result = ProcessPoolJobRunner(max_workers=2).run(word_count_job(), [])
        assert result.is_empty()

    def test_single_worker_equivalent(self):
        sequential = LocalJobRunner().run(word_count_job(), WORDS_INPUT)
        parallel = ProcessPoolJobRunner(max_workers=1).run(word_count_job(), WORDS_INPUT)
        assert parallel.output_as_dict() == sequential.output_as_dict()

    def test_unbudgeted_map_output_is_handed_over_as_run_files(self, tmp_path, monkeypatch):
        """No budget, same path: every map task hands back run files (never
        a record list), the hand-off is not counted as a spill, and the run
        files are gone once the job is done."""
        results = {"map": [], "reduce": []}
        guard = runner_module.iter_task_results

        def recording_guard(futures, job, phase):
            for result in guard(futures, job, phase):
                results[phase].append(result[0])
                yield result

        monkeypatch.setattr(runner_module, "iter_task_results", recording_guard)
        spill_dir = str(tmp_path / "spills")
        job = word_count_job(num_map_tasks=3)
        result = ProcessPoolJobRunner(max_workers=2, spill_dir=spill_dir).run(job, WORDS_INPUT)

        assert result.output_as_dict() == EXPECTED_COUNTS
        assert len(results["map"]) == 3
        assert all(isinstance(outcome, MapTaskSpills) for outcome in results["map"])
        assert sum(len(runs) for spills in results["map"] for runs in spills.run_paths) > 0
        for counter in (SHUFFLE_SPILLS, SPILLED_RECORDS, SPILLED_BYTES):
            assert counter not in result.counters.as_dict()["task"]
        assert os.listdir(spill_dir) == []

    def test_spilled_shuffle_matches_in_memory(self):
        sequential = LocalJobRunner().run(word_count_job(), WORDS_INPUT)
        spilling = ProcessPoolJobRunner(max_workers=2, spill_threshold_bytes=8)
        result = spilling.run(word_count_job(), WORDS_INPUT)
        assert result.output == sequential.output
        assert result.partition_output == sequential.partition_output


class TestProcessRunnerErrorContract:
    def test_unpicklable_mapper_factory_is_reported(self):
        job = word_count_job(mapper_factory=lambda: ExplodingMapper())
        with pytest.raises(MapReduceError) as excinfo:
            ProcessPoolJobRunner(max_workers=2).run(job, WORDS_INPUT)
        message = str(excinfo.value)
        assert "word-count" in message
        assert "mapper_factory" in message
        assert "ExplodingMapper" in message

    def test_unpicklable_reducer_factory_is_reported(self):
        job = word_count_job(reducer_factory=lambda: SumReducer())
        with pytest.raises(MapReduceError) as excinfo:
            ProcessPoolJobRunner(max_workers=2).run(job, WORDS_INPUT)
        message = str(excinfo.value)
        assert "reducer_factory" in message
        assert "SumReducer" in message

    def test_task_failure_carries_job_and_task_identity(self):
        job = word_count_job(mapper_factory=ExplodingMapper, num_map_tasks=2)
        for runner in (LocalJobRunner(), ProcessPoolJobRunner(max_workers=2)):
            with pytest.raises(MapReduceError) as excinfo:
                runner.run(job, WORDS_INPUT)
            message = str(excinfo.value)
            assert "word-count" in message
            assert "map task 0" in message
            assert "ValueError: boom" in message

    def test_library_error_from_a_task_propagates_unchanged(self):
        job = word_count_job(mapper_factory=RefusingMapper, num_map_tasks=2)
        for runner in (LocalJobRunner(), ProcessPoolJobRunner(max_workers=2)):
            with pytest.raises(StoreError, match="refused"):
                runner.run(job, WORDS_INPUT)

    def test_shuffle_failure_surfaces_as_engine_error(self):
        """Errors raised while routing map output are engine errors."""
        job = word_count_job(partitioner=BrokenPartitioner(), num_map_tasks=3)
        for runner in (LocalJobRunner(), ProcessPoolJobRunner(max_workers=2)):
            with pytest.raises(MapReduceError, match="partitioner returned index"):
                runner.run(job, WORDS_INPUT)


class TestSuffixSigmaOnProcessRunner:
    def test_suffix_sigma_pipeline_with_process_runner(
        self, running_example, running_example_expected
    ):
        config = NGramJobConfig(min_frequency=3, max_length=3)
        counter = SuffixSigmaCounter(config)
        records = counter.prepare_records(running_example)
        runner = ProcessPoolJobRunner(max_workers=2)
        pipeline = JobPipeline(runner=runner)
        statistics = counter._execute(records, pipeline, running_example)
        assert statistics.as_dict() == running_example_expected

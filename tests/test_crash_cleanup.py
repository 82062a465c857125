"""Crash cleanup: failures mid-spill leave no orphan files behind.

The out-of-core paths put transient state on disk — shuffle spill runs in
the parent, worker-local shuffles in map workers.  A task or shuffle
failure must (a) surface as a :class:`MapReduceError` carrying the job,
phase and task identity — on either backend — and (b) leave the configured
``spill_dir`` empty: no orphan run directories, no partial run files.
"""

import os
from typing import Any, Iterable

import pytest

from repro.exceptions import MapReduceError, SerializationError
from repro.mapreduce.process import ProcessPoolJobRunner
from repro.mapreduce.runner import LocalJobRunner
from repro.mapreduce.job import JobSpec, Mapper, TaskContext

from tests.test_runner import SumCombiner, SumReducer

#: Sentinel document identifier whose record makes the mapper explode
#: after it has already emitted (so spills precede the failure).
POISON_KEY = 666


class PoisonedFanoutMapper(Mapper):
    """Emits many records per input, then fails on the poisoned record."""

    def map(self, key: Any, value: Iterable[str], context: TaskContext) -> None:
        for token in value:
            for repeat in range(20):
                context.emit(f"{token}-{repeat}", 1)
        if key == POISON_KEY:
            raise RuntimeError("injected mid-spill failure")


class UnspillableValue:
    """Sizes fine (``serialized_size``) but refuses to pickle, so the
    failure happens inside the spill write, not in the byte accounting."""

    def __init__(self) -> None:
        self._unpicklable = lambda: None

    def serialized_size(self) -> int:
        return 1


class UnspillableValueMapper(Mapper):
    def map(self, key: Any, value: Iterable[str], context: TaskContext) -> None:
        for token in value:
            context.emit(token, UnspillableValue())


class TrailingUnspillableMapper(Mapper):
    """Spillable emissions, then one unspillable record as the task's last."""

    def map(self, key: Any, value: Iterable[str], context: TaskContext) -> None:
        for token in value:
            context.emit(token, 1)

    def cleanup(self, context: TaskContext) -> None:
        context.emit("tail", UnspillableValue())


def _job(**overrides) -> JobSpec:
    spec = dict(
        name="crash-cleanup",
        mapper_factory=PoisonedFanoutMapper,
        reducer_factory=SumReducer,
        num_reducers=3,
        num_map_tasks=3,
    )
    spec.update(overrides)
    return JobSpec(**spec)


def _poisoned_input():
    """Three map tasks; the poison sits in the last task, so the earlier
    tasks' output has already spilled when the failure hits."""
    healthy = [(index, ("alpha", "beta", "gamma")) for index in range(5)]
    return healthy + [(POISON_KEY, ("delta", "omega"))]


class TestMidMapSpillCleanup:
    def test_local_failure_mid_map_spill(self, tmp_path):
        """Parent-side spills exist when a later map task fails."""
        spill_dir = str(tmp_path / "spills")
        runner = LocalJobRunner(spill_threshold_records=8, spill_dir=spill_dir)
        with pytest.raises(MapReduceError) as excinfo:
            runner.run(_job(), _poisoned_input())
        message = str(excinfo.value)
        assert "crash-cleanup" in message
        assert "map task 2" in message
        assert "injected mid-spill failure" in message
        assert os.listdir(spill_dir) == []

    def test_unspillable_record_fails_spill_write_and_cleans_up(self, tmp_path):
        """A failure *inside* the spill write (unpicklable record) removes
        the partially written run file along with the run directory."""
        spill_dir = str(tmp_path / "spills")
        runner = LocalJobRunner(spill_threshold_records=2, spill_dir=spill_dir)
        job = _job(mapper_factory=UnspillableValueMapper)
        # The spill is triggered by an emission, so it fails inside the task,
        # and the library's own error leaves the task unchanged.
        with pytest.raises(SerializationError, match="cannot spill record"):
            runner.run(job, _poisoned_input())
        assert os.listdir(spill_dir) == []

    def test_failing_final_flush_is_a_shuffle_failure(self, tmp_path):
        """The remainder flushed when the shuffle is sealed belongs to no
        task: its failure is the shuffle's, and cleans up all the same."""
        spill_dir = str(tmp_path / "spills")
        # 17 spillable emissions spill at 5, 10 and 15; the unspillable
        # tail of the last task stays buffered until the final flush.
        runner = LocalJobRunner(spill_threshold_records=4, spill_dir=spill_dir)
        job = _job(mapper_factory=TrailingUnspillableMapper, num_map_tasks=1)
        with pytest.raises(MapReduceError) as excinfo:
            runner.run(job, _poisoned_input())
        message = str(excinfo.value)
        assert "crash-cleanup" in message
        assert "shuffle failed during the map phase" in message
        assert os.listdir(spill_dir) == []


class TestMidWorkerShuffleCleanup:
    def test_processes_failure_mid_worker_shuffle(self, tmp_path):
        """Worker-local partial shuffles are removed when their task dies."""
        spill_dir = str(tmp_path / "worker-spills")
        runner = ProcessPoolJobRunner(
            max_workers=2, spill_threshold_records=8, spill_dir=spill_dir
        )
        with pytest.raises(MapReduceError) as excinfo:
            runner.run(_job(), _poisoned_input())
        message = str(excinfo.value)
        assert "crash-cleanup" in message
        assert "map task 2" in message
        assert "injected mid-spill failure" in message
        assert os.listdir(spill_dir) == []

    def test_processes_combiner_task_failure_cleans_worker_runs(self, tmp_path):
        """Same contract with the combine buffer in front of the shuffle."""
        spill_dir = str(tmp_path / "worker-spills")
        runner = ProcessPoolJobRunner(
            max_workers=2, spill_threshold_records=8, spill_dir=spill_dir
        )
        job = _job(combiner_factory=SumCombiner)
        with pytest.raises(MapReduceError) as excinfo:
            runner.run(job, _poisoned_input())
        message = str(excinfo.value)
        assert "crash-cleanup" in message
        assert "map task" in message
        assert os.listdir(spill_dir) == []

    def test_successful_run_also_leaves_spill_dir_empty(self, tmp_path):
        """Worker runs are transient: consumed by reduce, then removed."""
        spill_dir = str(tmp_path / "worker-spills")
        runner = ProcessPoolJobRunner(
            max_workers=2, spill_threshold_records=8, spill_dir=spill_dir
        )
        healthy = [(index, ("alpha", "beta", "gamma")) for index in range(6)]
        result = runner.run(_job(), healthy)
        assert result.num_output_records > 0
        assert os.listdir(spill_dir) == []

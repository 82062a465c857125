"""Execution of MapReduce jobs: one run loop over an executor.

:class:`LocalJobRunner` executes a :class:`~repro.mapreduce.job.JobSpec`:
it plans map splits over the input dataset, runs mappers (and the optional
combiner), shuffles with the job's partitioner and sort comparator, and
runs one reducer per partition.  It produces a :class:`JobResult` whose
outputs are :class:`~repro.mapreduce.dataset.Dataset` objects, plus
Hadoop-style counters and per-task metrics.

:meth:`LocalJobRunner.run` is the engine's only run loop.  It submits the
tasks of each phase to an :class:`~concurrent.futures.Executor` and reads
their results back in task order through :func:`iter_task_results`, the one
place a task failure is turned into an engine error.  ``LocalJobRunner``
itself runs every task inline, at submit (:class:`InlineExecutor`);
:class:`~repro.mapreduce.process.ProcessPoolJobRunner` overrides only which
executor that is and how a task reaches it.  Every task increments
:class:`~repro.mapreduce.counters.Counters` of its own, merged in task
order, so totals do not depend on where tasks ran.

A map task always emits into a shuffle — straight into it when the job has
no combiner, through a budget-bounded
:class:`~repro.mapreduce.shuffle.CombineBuffer` otherwise: the job's own
:class:`~repro.mapreduce.shuffle.ExternalShuffle` when the task runs
inline, a worker-local one whose run files the job's shuffle adopts when
it runs in a worker process.  No task ever hands a record list back.

Job I/O streams through the dataset layer end to end:

* input is any iterable or :class:`~repro.mapreduce.dataset.Dataset`; a
  sharded :class:`~repro.mapreduce.dataset.FileDataset` is split per shard
  from its record counts alone, so the runner never materialises it;
* with ``materialize="disk"`` every reduce partition is written as one
  shard of the job's output :class:`FileDataset` while the reducer runs —
  in memory mode outputs stay plain record lists;
* with ``spill_threshold_bytes`` set the shuffle spills sorted runs of map
  output to temp files and streams each reducer from a k-way merge,
  bounding the shuffle's memory ceiling regardless of the input size.

All materialisation choices are byte-transparent: task boundaries, record
order and counter totals are identical whether data lives in memory or on
disk.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.config import MATERIALIZE_MODES
from repro.exceptions import MapReduceError, ReproError
from repro.mapreduce import counters as counter_names
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.context import CountingSink, TaskContext
from repro.mapreduce.counters import Counters
from repro.mapreduce.dataset import (
    Dataset,
    DatasetStorage,
    FileDataset,
    ListSink,
    MemoryDataset,
    Shard,
    ShardSink,
    as_dataset,
)
from repro.mapreduce.job import JobSpec
from repro.mapreduce.metrics import JobMetrics, TaskMetrics
# Not called here any more (every emission is sized by its sink); the name stays
# because tests/test_shuffle_boundary.py counts sizings by patching it per module.
from repro.mapreduce.serialization import record_size  # noqa: F401
from repro.mapreduce.shuffle import (
    CombineBuffer,
    ExternalShuffle,
    PartitionInput,
    group_sorted_records,
)
from repro.util.codecs import get_codec

Record = Tuple[Any, Any]

#: What a finished reduce task hands back: its record list (memory mode) or
#: the shards its output was written to (disk mode).
ReduceOutcome = Union[List[Record], Tuple[Shard, ...]]

#: What every task resolves to: its outcome (``None`` for a map task that
#: emitted into the job's shuffle, a
#: :class:`~repro.mapreduce.shuffle.MapTaskSpills` for one that ran in a
#: worker, a :data:`ReduceOutcome` for a reduce task), its metrics and the
#: counters it incremented.
TaskResult = Tuple[Any, TaskMetrics, Counters]


class InlineExecutor(Executor):
    """Runs every task in the calling thread, at submit.

    Once a task has failed, later submissions are cancelled instead of run
    — what a pool does with its pending tasks on the first failure.
    """

    def __init__(self) -> None:
        self._failed = False

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        future: Future = Future()
        if self._failed:
            future.cancel()
            return future
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            self._failed = True
            future.set_exception(exc)
        return future


def iter_task_results(
    futures: Sequence[Future], job: JobSpec, phase: str
) -> Iterator[TaskResult]:
    """Yield task results in submission order — the engine's failure contract.

    On the first failing task the remaining futures are cancelled (tasks
    already running finish, as in Hadoop's job teardown).  A
    :class:`~repro.exceptions.ReproError` raised by the task propagates
    unchanged; anything else is re-raised as a :class:`MapReduceError`
    identifying the job, phase and task — on every backend.
    """
    for index, future in enumerate(futures):
        try:
            result = future.result()
        except Exception as exc:
            for pending in futures[index + 1 :]:
                pending.cancel()
            if isinstance(exc, ReproError):
                raise
            raise MapReduceError(
                f"job {job.name!r}: {phase} task {index} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        yield result


@dataclass
class JobResult:
    """Outcome of a single job run.

    Outputs are datasets; the :attr:`output` / :attr:`partition_output`
    properties materialise them for convenience (and backward
    compatibility), while :meth:`iter_output` streams records without ever
    holding the full result — the only access pattern that keeps a
    disk-materialised result out of memory.
    """

    job_name: str
    output_dataset: Dataset
    partition_datasets: List[Dataset]
    counters: Counters
    metrics: JobMetrics
    elapsed_seconds: float = 0.0

    @property
    def output(self) -> List[Record]:
        """The job output as one materialised record list."""
        return self.output_dataset.to_list()

    @property
    def partition_output(self) -> List[List[Record]]:
        """Per-reduce-partition output, materialised."""
        return [dataset.to_list() for dataset in self.partition_datasets]

    def iter_output(self) -> Iterator[Record]:
        """Stream the job output in partition order."""
        return self.output_dataset.iter_records()

    @property
    def num_output_records(self) -> int:
        return self.output_dataset.num_records

    @property
    def output_keys(self) -> List[Any]:
        """Keys of the job output, in emission order."""
        return [key for key, _ in self.iter_output()]

    def output_as_dict(self) -> dict:
        """Job output as a dictionary (later emissions win on duplicate keys)."""
        return dict(self.iter_output())

    def is_empty(self) -> bool:
        """Whether the job produced no output records."""
        return self.output_dataset.num_records == 0

    # ------------------------------------------------------------ retention
    def release_output(self) -> None:
        """Drop the job's output records (counters and metrics are kept)."""
        for dataset in self.partition_datasets:
            dataset.release()
        self.output_dataset.release()

    @property
    def output_released(self) -> bool:
        return self.output_dataset.released


class LocalJobRunner:
    """Runs MapReduce jobs in the current process.

    Parameters
    ----------
    cache:
        The distributed cache shared with every task context.  A pipeline
        typically owns one cache and passes it to its runner.
    default_map_tasks:
        Number of map tasks used when a job does not specify its own.
    spill_threshold_bytes:
        When set, the shuffle buffers at most this many (serialised) bytes
        in memory and spills sorted runs to disk past the budget; ``None``
        keeps the whole shuffle in memory.
    spill_threshold_records:
        Record-count spill budget; the shuffle spills when either
        configured budget (bytes or records) is exceeded.
    spill_dir:
        Directory for spilled runs (a private temp directory by default).
    shard_codec:
        Stream-compression codec for shard files and spill runs
        (``"none"``/``"gzip"``/``"zstd"``, see :mod:`repro.util.codecs`).
    materialize:
        ``"memory"`` (default) keeps job outputs as record lists;
        ``"disk"`` writes each reduce partition as one shard of an on-disk
        output dataset and materialises streamed inputs as sharded files.
    dataset_dir:
        Directory for disk-materialised datasets (a private temp directory
        by default).
    """

    def __init__(
        self,
        cache: Optional[DistributedCache] = None,
        default_map_tasks: int = 4,
        spill_threshold_bytes: Optional[int] = None,
        spill_threshold_records: Optional[int] = None,
        spill_dir: Optional[str] = None,
        shard_codec: str = "none",
        materialize: str = "memory",
        dataset_dir: Optional[str] = None,
    ) -> None:
        if default_map_tasks < 1:
            raise MapReduceError("default_map_tasks must be >= 1")
        if spill_threshold_bytes is not None and spill_threshold_bytes < 1:
            raise MapReduceError("spill_threshold_bytes must be >= 1 or None")
        if spill_threshold_records is not None and spill_threshold_records < 1:
            raise MapReduceError("spill_threshold_records must be >= 1 or None")
        if materialize not in MATERIALIZE_MODES:
            raise MapReduceError(
                f"materialize must be one of {', '.join(MATERIALIZE_MODES)}, "
                f"got {materialize!r}"
            )
        # Resolve eagerly so an unknown/unavailable codec fails at runner
        # construction, not in the middle of a job's first spill.
        get_codec(shard_codec)
        self.cache = cache if cache is not None else DistributedCache()
        self.default_map_tasks = default_map_tasks
        self.spill_threshold_bytes = spill_threshold_bytes
        self.spill_threshold_records = spill_threshold_records
        self.spill_dir = spill_dir
        self.shard_codec = shard_codec
        self.materialize = materialize
        self.dataset_dir = dataset_dir
        self._storage: Optional[DatasetStorage] = None

    # ------------------------------------------------------------- datasets
    def _dataset_storage(self) -> DatasetStorage:
        if self._storage is None:
            self._storage = DatasetStorage(self.dataset_dir)
        return self._storage

    def materialize_dataset(self, records: Iterable[Record], name: str = "dataset") -> Dataset:
        """Materialise a record stream under this runner's policy.

        Memory mode buffers into a :class:`MemoryDataset`; disk mode
        streams the records into shard files and returns the resulting
        :class:`FileDataset`, so the stream is never held in memory.
        """
        if isinstance(records, Dataset) or self.materialize != "disk":
            # Passthrough (with the released-dataset guard) or memory buffering.
            return as_dataset(records)
        return FileDataset.write(
            records, storage=self._dataset_storage(), name=name, codec=self.shard_codec
        )

    def _make_reduce_sink(self, job: JobSpec, task_index: int) -> Optional[ShardSink]:
        """The output sink for one reduce task (``None`` selects buffering)."""
        if self.materialize != "disk":
            return None
        path = self._dataset_storage().allocate(f"{job.name}-part-{task_index:05d}")
        return ShardSink(path, codec=self.shard_codec)

    def _bundle_outputs(
        self, outcomes: List[ReduceOutcome]
    ) -> Tuple[Dataset, List[Dataset]]:
        """Assemble reduce outcomes into the job's output datasets.

        The job-wide output dataset and the per-partition views share the
        same backing (lists or shard files), so no records are duplicated.
        """
        first = outcomes[0] if outcomes else None
        if isinstance(first, tuple) and first and isinstance(first[0], Shard):
            partition_datasets: List[Dataset] = [
                FileDataset(shards, storage=self._storage) for shards in outcomes
            ]
            output_dataset: Dataset = FileDataset(
                [shard for shards in outcomes for shard in shards],
                storage=self._storage,
            )
        else:
            partition_datasets = [MemoryDataset(records) for records in outcomes]
            output_dataset = MemoryDataset(
                [record for records in outcomes for record in records]
            )
        return output_dataset, partition_datasets

    # ---------------------------------------------------------------- tasks
    def _run_map_task(
        self,
        job: JobSpec,
        task_index: int,
        split: Iterable[Record],
        counters: Counters,
        shuffle: ExternalShuffle,
    ) -> Tuple[None, TaskMetrics]:
        """Run one map task over ``split``, emitting into ``shuffle``.

        Emissions stream out of the task as they are produced — straight
        into the shuffle when no combiner is configured, or through a
        budget-bounded :class:`CombineBuffer` otherwise — so the task has
        no outcome of its own to hand back.
        """
        started = time.perf_counter()
        mapper = job.make_mapper()
        combining = job.combiner_factory is not None
        sink: Any
        if combining:
            sink = CombineBuffer(
                job,
                counters=counters,
                cache=self.cache,
                output=shuffle.add,
                spill_threshold_bytes=self.spill_threshold_bytes,
                spill_threshold_records=self.spill_threshold_records,
            )
        else:
            sink = CountingSink(shuffle.add)

        context = TaskContext(counters=counters, cache=self.cache, sink=sink)
        mapper.setup(context)
        input_records = 0
        for key, value in split:
            input_records += 1
            mapper.map(key, value, context)
        mapper.cleanup(context)
        counters.increment(counter_names.MAP_INPUT_RECORDS, input_records)

        if combining:
            sink.flush()
            emitted_records, emitted_bytes = sink.emitted_records, sink.emitted_bytes
            shuffled_records, shuffled_bytes = sink.combined_records, sink.combined_bytes
        else:
            emitted_records = shuffled_records = sink.num_records
            emitted_bytes = shuffled_bytes = sink.serialized_bytes
        counters.increment(counter_names.MAP_OUTPUT_RECORDS, emitted_records)
        counters.increment(counter_names.MAP_OUTPUT_BYTES, emitted_bytes)
        counters.increment(counter_names.SHUFFLE_RECORDS, shuffled_records)
        counters.increment(counter_names.SHUFFLE_BYTES, shuffled_bytes)
        metrics = TaskMetrics(
            task_type="map",
            task_index=task_index,
            input_records=input_records,
            output_records=emitted_records,
            output_bytes=emitted_bytes,
            elapsed_seconds=time.perf_counter() - started,
        )
        return None, metrics

    def _run_reduce_task(
        self,
        job: JobSpec,
        task_index: int,
        partition: PartitionInput,
        counters: Counters,
        output_sink: Optional[Any],
    ) -> Tuple[ReduceOutcome, TaskMetrics]:
        """Run one reduce task; its output flows through ``output_sink``.

        ``None`` selects a :class:`ListSink`, which buffers the partition
        output in memory and the outcome is the record list; a :class:`ShardSink`
        frames each emission straight to a shard file and the outcome is
        the finished :class:`Shard`.
        """
        started = time.perf_counter()
        sorted_stream = partition.sorted_records(job.sort_comparator)
        reducer = job.make_reducer()
        sink = output_sink if output_sink is not None else ListSink()
        sink.begin()
        try:
            context = TaskContext(counters=counters, cache=self.cache, sink=sink)
            reducer.setup(context)
            groups = 0
            input_records = 0
            for key, values in group_sorted_records(sorted_stream, job.sort_comparator):
                groups += 1
                input_records += len(values)
                reducer.reduce(key, values, context)
            reducer.cleanup(context)
        except BaseException:
            # Close (and for shard sinks, remove) the partial output so a
            # failing reducer leaks neither a file handle nor an orphan shard.
            sink.abort()
            raise
        counters.increment(counter_names.REDUCE_INPUT_RECORDS, input_records)
        counters.increment(counter_names.REDUCE_INPUT_GROUPS, groups)
        outcome = sink.finish()
        counters.increment(counter_names.REDUCE_OUTPUT_RECORDS, sink.num_records)
        metrics = TaskMetrics(
            task_type="reduce",
            task_index=task_index,
            input_records=input_records,
            output_records=sink.num_records,
            output_bytes=sink.serialized_bytes,
            elapsed_seconds=time.perf_counter() - started,
        )
        return outcome, metrics

    def execute_task(
        self, job: JobSpec, phase: str, task_index: int, task_input: Any, target: Any
    ) -> TaskResult:
        """Run one map or reduce task with counters of its own.

        This is the unit an executor runs, in this process or in a worker.
        ``target`` receives the task's emissions: the shuffle of a map
        task, the output sink of a reduce task (``None`` buffers).
        """
        counters = Counters()
        run_task = self._run_map_task if phase == "map" else self._run_reduce_task
        outcome, metrics = run_task(job, task_index, task_input, counters, target)
        return outcome, metrics, counters

    # -------------------------------------------------------------- shuffle
    def new_shuffle(self, job: JobSpec) -> ExternalShuffle:
        """A shuffle for ``job`` under this runner's budget, directory and codec."""
        return ExternalShuffle(
            job.partitioner,
            job.sort_comparator,
            job.num_reducers,
            spill_threshold_bytes=self.spill_threshold_bytes,
            spill_threshold_records=self.spill_threshold_records,
            spill_dir=self.spill_dir,
            codec=self.shard_codec,
        )

    # ------------------------------------------------------- executor hooks
    def _make_executor(self, num_tasks: int) -> Executor:
        """The executor both phases of one run submit their tasks to."""
        return InlineExecutor()

    def _bind_tasks(
        self, job: JobSpec, shuffle: ExternalShuffle
    ) -> Tuple[Callable[..., TaskResult], Callable[..., TaskResult]]:
        """The callables one run submits: ``map(index, split)``, ``reduce(index, partition, sink)``.

        Inline, a map task emits straight into the job's ``shuffle``.
        """
        return (
            partial(self.execute_task, job, "map", target=shuffle),
            partial(self.execute_task, job, "reduce"),
        )

    # ------------------------------------------------------------------ run
    def run(self, job: JobSpec, input_records: Union[Dataset, Iterable[Record]]) -> JobResult:
        """Execute ``job`` over ``input_records`` and return its result.

        The shuffle is sealed only after *all* map tasks have completed —
        the same barrier Hadoop enforces — and task results are folded in
        task order, which keeps the merge of adopted runs stable and the
        output byte-identical wherever the tasks ran.
        """
        started = time.perf_counter()
        dataset = as_dataset(input_records)
        counters = Counters()
        metrics = JobMetrics(job_name=job.name)
        splits = dataset.split(job.num_map_tasks or self.default_map_tasks)

        shuffle = self.new_shuffle(job)
        try:
            with self._make_executor(max(len(splits), job.num_reducers)) as executor:
                map_task, reduce_task = self._bind_tasks(job, shuffle)
                futures = [
                    executor.submit(map_task, index, split)
                    for index, split in enumerate(splits)
                ]
                for spills, task_metrics, task_counters in iter_task_results(
                    futures, job, "map"
                ):
                    if spills is not None:
                        shuffle.adopt_runs(spills.run_paths, spills.stats)
                    metrics.map_tasks.append(task_metrics)
                    counters.merge(task_counters)
                try:
                    shuffle.finalize()
                except MapReduceError:
                    raise
                except Exception as exc:
                    # The remainder flushed here belongs to no task, so this
                    # is the shuffle's own failure, not a task's.
                    raise MapReduceError(
                        f"job {job.name!r}: shuffle failed during the map phase: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                if shuffle.spilled:
                    counters.increment(counter_names.SHUFFLE_SPILLS, shuffle.stats.num_spills)
                    counters.increment(
                        counter_names.SPILLED_RECORDS, shuffle.stats.spilled_records
                    )
                    counters.increment(counter_names.SPILLED_BYTES, shuffle.stats.spilled_bytes)

                futures = [
                    executor.submit(
                        reduce_task, index, partition, self._make_reduce_sink(job, index)
                    )
                    for index, partition in enumerate(shuffle.partition_inputs())
                ]
                outcomes: List[ReduceOutcome] = []
                for outcome, task_metrics, task_counters in iter_task_results(
                    futures, job, "reduce"
                ):
                    outcomes.append(outcome)
                    metrics.reduce_tasks.append(task_metrics)
                    counters.merge(task_counters)
        finally:
            shuffle.cleanup()

        output_dataset, partition_datasets = self._bundle_outputs(outcomes)
        elapsed = time.perf_counter() - started
        metrics.elapsed_seconds = elapsed
        return JobResult(
            job_name=job.name,
            output_dataset=output_dataset,
            partition_datasets=partition_datasets,
            counters=counters,
            metrics=metrics,
            elapsed_seconds=elapsed,
        )

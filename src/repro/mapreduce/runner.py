"""Local execution of MapReduce jobs.

:class:`LocalJobRunner` executes a :class:`~repro.mapreduce.job.JobSpec`
in-process: it plans map splits over the input dataset, runs mappers (and
the optional combiner), shuffles with the job's partitioner and sort
comparator, and runs one reducer per partition.  It produces a
:class:`JobResult` whose outputs are :class:`~repro.mapreduce.dataset.Dataset`
objects, plus Hadoop-style counters and per-task metrics.

Job I/O streams through the dataset layer end to end:

* input is any iterable or :class:`~repro.mapreduce.dataset.Dataset`; a
  sharded :class:`~repro.mapreduce.dataset.FileDataset` is split per shard
  from its record counts alone, so the runner never materialises it;
* with ``materialize="disk"`` every reduce partition is written as one
  shard of the job's output :class:`FileDataset` while the reducer runs —
  in memory mode outputs stay plain record lists, exactly as before;
* the shuffle runs through :class:`~repro.mapreduce.shuffle.ExternalShuffle`:
  with ``spill_threshold_bytes`` set the runner spills sorted runs of map
  output to temp files and streams each reducer from a k-way merge,
  bounding the shuffle's memory ceiling regardless of the input size.

All materialisation choices are byte-transparent: task boundaries, record
order and counter totals are identical whether data lives in memory or on
disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.config import MATERIALIZE_MODES
from repro.exceptions import MapReduceError
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
from repro.mapreduce.serialization import record_size
from repro.mapreduce.shuffle import (
    CombineBuffer,
    ExternalShuffle,
    PartitionInput,
    group_sorted_records,
    sort_partition,
)
from repro.util.codecs import get_codec

Record = Tuple[Any, Any]

#: Input accepted by a reduce task: a raw (unsorted) record list or the
#: description of an externally shuffled partition.
ReduceInput = Union[Sequence[Record], PartitionInput]

#: What a finished reduce task hands back: its record list (memory mode) or
#: the shards its output was written to (disk mode).
ReduceOutcome = Union[List[Record], Tuple[Shard, ...]]


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

    # ------------------------------------------------------------------ map
    def _run_map_task(
        self,
        job: JobSpec,
        task_index: int,
        split: Iterable[Record],
        counters: Counters,
        shuffle: Optional[ExternalShuffle] = None,
    ) -> Tuple[Optional[List[Record]], TaskMetrics]:
        """Run one map task over ``split``.

        With ``shuffle`` given, emissions stream out of the task as they
        are produced — straight into the shuffle when no combiner is
        configured, or through a budget-bounded :class:`CombineBuffer`
        otherwise — and the returned record list is ``None``.  Without a
        shuffle (the pooled backends collecting task output to route in
        task order) the task's (possibly combined) output is returned for
        the caller to route.  Counter totals are identical either way.
        """
        started = time.perf_counter()
        mapper = job.make_mapper()
        has_combiner = job.combiner_factory is not None
        collected: Optional[List[Record]] = None

        combine_buffer: Optional[CombineBuffer] = None
        sink: Optional[Any] = None
        if has_combiner:
            if shuffle is not None:
                downstream = shuffle.add
            else:
                collected = []
                downstream = lambda key, value, size: collected.append((key, value))  # noqa: E731
            combine_buffer = CombineBuffer(
                job,
                counters=counters,
                cache=self.cache,
                output=downstream,
                spill_threshold_bytes=self.spill_threshold_bytes,
                spill_threshold_records=self.spill_threshold_records,
            )
            sink = combine_buffer
        elif shuffle is not None:
            sink = CountingSink(shuffle.add)

        context = TaskContext(counters=counters, cache=self.cache, sink=sink)
        mapper.setup(context)
        input_records = 0
        for key, value in split:
            input_records += 1
            mapper.map(key, value, context)
        mapper.cleanup(context)
        counters.increment(counter_names.MAP_INPUT_RECORDS, input_records)

        if combine_buffer is not None:
            combine_buffer.flush()
            counters.increment(
                counter_names.MAP_OUTPUT_RECORDS, combine_buffer.emitted_records
            )
            counters.increment(counter_names.MAP_OUTPUT_BYTES, combine_buffer.emitted_bytes)
            counters.increment(
                counter_names.SHUFFLE_RECORDS, combine_buffer.combined_records
            )
            counters.increment(counter_names.SHUFFLE_BYTES, combine_buffer.combined_bytes)
            metrics = TaskMetrics(
                task_type="map",
                task_index=task_index,
                input_records=input_records,
                output_records=combine_buffer.emitted_records,
                output_bytes=combine_buffer.emitted_bytes,
                sorted_records=combine_buffer.emitted_records,
                elapsed_seconds=time.perf_counter() - started,
            )
            return collected, metrics

        if sink is not None:
            counters.increment(counter_names.MAP_OUTPUT_RECORDS, sink.num_records)
            counters.increment(counter_names.MAP_OUTPUT_BYTES, sink.serialized_bytes)
            counters.increment(counter_names.SHUFFLE_RECORDS, sink.num_records)
            counters.increment(counter_names.SHUFFLE_BYTES, sink.serialized_bytes)
            metrics = TaskMetrics(
                task_type="map",
                task_index=task_index,
                input_records=input_records,
                output_records=sink.num_records,
                output_bytes=sink.serialized_bytes,
                sorted_records=0,
                elapsed_seconds=time.perf_counter() - started,
            )
            return None, metrics

        emitted = context.drain()
        output_bytes = 0
        for key, value in emitted:
            output_bytes += record_size(key, value)
        counters.increment(counter_names.MAP_OUTPUT_RECORDS, len(emitted))
        counters.increment(counter_names.MAP_OUTPUT_BYTES, output_bytes)
        counters.increment(counter_names.SHUFFLE_RECORDS, len(emitted))
        counters.increment(counter_names.SHUFFLE_BYTES, output_bytes)

        metrics = TaskMetrics(
            task_type="map",
            task_index=task_index,
            input_records=input_records,
            output_records=len(emitted),
            output_bytes=output_bytes,
            sorted_records=0,
            elapsed_seconds=time.perf_counter() - started,
        )
        return emitted, metrics

    # --------------------------------------------------------------- reduce
    def _sorted_reduce_stream(self, job: JobSpec, partition: ReduceInput) -> Iterator[Record]:
        """The partition's records in sort order, streamed when spilled."""
        if isinstance(partition, PartitionInput):
            return partition.sorted_records(job.sort_comparator)
        return iter(sort_partition(partition, job.sort_comparator))

    def _run_reduce_task(
        self,
        job: JobSpec,
        task_index: int,
        partition: ReduceInput,
        counters: Counters,
        output_sink: Optional[Any] = None,
    ) -> Tuple[ReduceOutcome, TaskMetrics]:
        """Run one reduce task; its output flows through ``output_sink``.

        The default :class:`ListSink` buffers the partition output in
        memory and the outcome is the record list; a :class:`ShardSink`
        frames each emission straight to a shard file and the outcome is
        the finished :class:`Shard`.
        """
        started = time.perf_counter()
        sorted_stream = self._sorted_reduce_stream(job, partition)
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
            sorted_records=input_records,
            elapsed_seconds=time.perf_counter() - started,
        )
        return outcome, metrics

    # -------------------------------------------------------------- shuffle
    def _new_shuffle(self, job: JobSpec) -> ExternalShuffle:
        """The shuffle for one job run (spilling iff a threshold is set)."""
        return ExternalShuffle(
            job.partitioner,
            job.sort_comparator,
            job.num_reducers,
            spill_threshold_bytes=self.spill_threshold_bytes,
            spill_threshold_records=self.spill_threshold_records,
            spill_dir=self.spill_dir,
            codec=self.shard_codec,
        )

    @staticmethod
    def _record_spill_counters(shuffle: ExternalShuffle, counters: Counters) -> None:
        """Publish spill activity; no-spill runs keep their counter set unchanged."""
        if not shuffle.spilled:
            return
        counters.increment(counter_names.SHUFFLE_SPILLS, shuffle.stats.num_spills)
        counters.increment(counter_names.SPILLED_RECORDS, shuffle.stats.spilled_records)
        counters.increment(counter_names.SPILLED_BYTES, shuffle.stats.spilled_bytes)

    # ------------------------------------------------------------------ run
    def run(self, job: JobSpec, input_records: Union[Dataset, Iterable[Record]]) -> JobResult:
        """Execute ``job`` over ``input_records`` and return its result."""
        started = time.perf_counter()
        dataset = as_dataset(input_records)
        counters = Counters()
        metrics = JobMetrics(job_name=job.name)

        num_map_tasks = job.num_map_tasks or self.default_map_tasks
        splits = dataset.split(num_map_tasks)

        shuffle = self._new_shuffle(job)
        try:
            for task_index, split in enumerate(splits):
                shuffle_records, task_metrics = self._run_map_task(
                    job, task_index, split, counters, shuffle=shuffle
                )
                if shuffle_records is not None:
                    shuffle.add_records(shuffle_records)
                metrics.map_tasks.append(task_metrics)
            shuffle.finalize()
            self._record_spill_counters(shuffle, counters)

            outcomes: List[ReduceOutcome] = []
            for task_index, partition in enumerate(shuffle.partition_inputs()):
                outcome, task_metrics = self._run_reduce_task(
                    job,
                    task_index,
                    partition,
                    counters,
                    output_sink=self._make_reduce_sink(job, task_index),
                )
                outcomes.append(outcome)
                metrics.reduce_tasks.append(task_metrics)
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

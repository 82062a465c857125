"""The shuffle: partitioning, sorting, spilling and grouping of map output.

This is the stage the paper's algorithms customise the most: SUFFIX-σ
partitions suffixes by their *first term only* and sorts them in reverse
lexicographic order so that its reducer can aggregate prefix counts with two
stacks (Algorithm 4).  The functions here implement the generic machinery.

Two shuffle implementations exist:

* the in-memory functions (:func:`partition_records`, :func:`sort_partition`,
  :func:`shuffle`) materialise every partition as a Python list — fine for
  small inputs, but the memory ceiling is the full shuffle volume;
* :class:`ExternalShuffle` buffers records per partition up to a configurable
  byte budget, spills sorted runs to varint-framed temp files (the same
  migrate-to-disk policy as :class:`repro.kvstore.spilling.SpillingKVStore`)
  and streams each reduce partition from a k-way :func:`heapq.merge` of its
  runs — Hadoop's sort-spill-merge shuffle in miniature.

Two further pieces complete the map side of the out-of-core story:

* :class:`CombineBuffer` is the bounded sort/combine buffer map emissions
  flow through when a job configures a combiner: once the buffered records
  exceed the spill budget they are sorted, grouped and combined, and only
  the combined records move on — combine-per-*spill* instead of
  combine-per-task, so a map task's peak is capped by the budget no matter
  how much it emits;
* :class:`MapTaskSpills` describes the output of a map task that ran in a
  worker process (see :mod:`repro.mapreduce.process`): it emitted into a
  worker-local shuffle and handed its whole output over as sorted run
  files, which the parent adopts into the job's shuffle with
  :meth:`ExternalShuffle.adopt_runs` — the records themselves never cross
  the process boundary.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import MapReduceError
from repro.mapreduce import counters as counter_names
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.context import CountingSink, TaskContext
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobSpec, Partitioner, SortComparator, identity_key
from repro.mapreduce.serialization import read_framed_records, record_size, write_framed_record
from repro.util.codecs import get_codec

Record = Tuple[Any, Any]
KeyGroup = Tuple[Any, List[Any]]

_record_key = itemgetter(0)


def partition_records(
    records: Iterable[Record],
    partitioner: Partitioner,
    num_partitions: int,
) -> List[List[Record]]:
    """Assign every record to one of ``num_partitions`` buckets."""
    if num_partitions < 1:
        raise MapReduceError("num_partitions must be >= 1")
    partitions: List[List[Record]] = [[] for _ in range(num_partitions)]
    for key, value in records:
        index = partitioner.partition(key, num_partitions)
        if not 0 <= index < num_partitions:
            raise MapReduceError(
                f"partitioner returned index {index} outside [0, {num_partitions})"
            )
        partitions[index].append((key, value))
    return partitions


def sort_partition(records: Iterable[Record], comparator: SortComparator) -> List[Record]:
    """Sort one partition's records by key using ``comparator`` (stable).

    When the comparator exposes an equivalent key function (the analogue of a
    Hadoop raw comparator), the key-based sort is used; it produces the same
    order much faster than a comparison-based sort.
    """
    fast_key = comparator.sort_key_function()
    if fast_key is identity_key:
        return sorted(records, key=_record_key)
    if fast_key is not None:
        try:
            return sorted(records, key=lambda record: fast_key(record[0]))
        except TypeError:
            # Keys not supported by the fast path (e.g. string terms given an
            # integer-oriented key function); fall back to the comparator.
            pass
    key_function = cmp_to_key(comparator.compare)
    return sorted(records, key=lambda record: key_function(record[0]))


def group_sorted_records(records: Iterable[Record], comparator: SortComparator) -> Iterator[KeyGroup]:
    """Group consecutive records whose keys compare equal.

    ``records`` must already be sorted by ``comparator``; grouping uses the
    comparator's notion of equality, mirroring Hadoop's grouping comparator
    semantics.  Keys are equal exactly when their sort keys are, so a
    comparator with a key function groups on plain ``==`` of the sort keys
    (of the keys themselves when the key function is the identity); a
    Python-level ``compare() == 0`` per record is kept for comparators
    without one, and for keys the key function does not support.
    """
    (stream,), sort_key = _resolve_sort_key([records], comparator)
    iterator = iter(stream)
    first = next(iterator, None)
    if first is None:
        return
    current_key, value = first
    values = [value]
    if sort_key is _record_key:
        for key, value in iterator:
            if key == current_key:
                values.append(value)
            else:
                yield current_key, values
                current_key, values = key, [value]
    else:
        current_sort_key = sort_key(first)
        for record in iterator:
            record_sort_key = sort_key(record)
            if record_sort_key == current_sort_key:
                values.append(record[1])
            else:
                yield current_key, values
                current_key, values = record[0], [record[1]]
                current_sort_key = record_sort_key
    yield current_key, values


def shuffle(
    records: Iterable[Record],
    partitioner: Partitioner,
    comparator: SortComparator,
    num_partitions: int,
) -> List[List[Record]]:
    """Partition and sort map output, returning per-partition sorted records."""
    partitions = partition_records(records, partitioner, num_partitions)
    return [sort_partition(partition, comparator) for partition in partitions]


# --------------------------------------------------- map-side combine buffer
class CombineBuffer:
    """Bounded map-side sort/combine buffer (Hadoop's combine-per-spill).

    Used as the map task's emission sink when the job configures a
    combiner.  Emissions buffer up to the configured budget (serialised
    bytes and/or record count — the same knobs as the external shuffle);
    past it the buffer is sorted with the job's sort comparator, grouped,
    run through a fresh combiner instance, and the *combined* records are
    forwarded to ``output``.  :meth:`flush` combines the remainder when the
    task ends.

    With no budget configured the buffer combines exactly once at flush
    time, which is byte-identical (records, bytes, counters) to the
    historical combine-per-task behaviour.  With a budget, a key spanning
    several spills reaches the reducer as several partial aggregates — the
    combiner contract (associative, commutative, same types in and out)
    makes the reduce output identical either way, while the task's peak
    memory is capped by the budget instead of its emission volume.

    Counter totals (``COMBINE_*``, and the ``MAP_OUTPUT_*`` /
    ``SHUFFLE_*`` totals published by the runner from the buffer's
    aggregates) depend only on the task's emission stream and the budget,
    never on the execution backend — the property the cross-backend
    agreement tests pin down.
    """

    def __init__(
        self,
        job: JobSpec,
        counters: Counters,
        cache: DistributedCache,
        output: Callable[[Any, Any, int], None],
        spill_threshold_bytes: Optional[int] = None,
        spill_threshold_records: Optional[int] = None,
    ) -> None:
        if job.combiner_factory is None:
            raise MapReduceError(
                f"job {job.name!r} has no combiner; the combine buffer requires one"
            )
        if spill_threshold_bytes is not None and spill_threshold_bytes < 1:
            raise MapReduceError("spill_threshold_bytes must be >= 1 or None")
        if spill_threshold_records is not None and spill_threshold_records < 1:
            raise MapReduceError("spill_threshold_records must be >= 1 or None")
        self._job = job
        self._counters = counters
        self._cache = cache
        self._output = output
        self.spill_threshold_bytes = spill_threshold_bytes
        self.spill_threshold_records = spill_threshold_records
        self._budgeted = (
            spill_threshold_bytes is not None or spill_threshold_records is not None
        )
        self._records: List[Record] = []
        self._buffered_bytes = 0
        #: Pre-combine totals (the job's ``MAP_OUTPUT_*`` quantities), published
        #: per combine round: every emission is sorted and combined exactly once.
        self.emitted_records = 0
        self.emitted_bytes = 0
        #: Post-combine totals (the job's ``SHUFFLE_*`` quantities).
        self.combined_records = 0
        self.combined_bytes = 0
        #: Budget-triggered combine rounds (0 means combine-per-task).
        self.num_spills = 0

    # ------------------------------------------------------------ internals
    def _over_budget(self) -> bool:
        if (
            self.spill_threshold_bytes is not None
            and self._buffered_bytes > self.spill_threshold_bytes
        ):
            return True
        return (
            self.spill_threshold_records is not None
            and len(self._records) > self.spill_threshold_records
        )

    def _combine(self) -> None:
        """Sort, group and combine the buffered records; forward the output."""
        records = self._records
        if not records:
            return
        comparator = self._job.sort_comparator
        sorted_records = sort_partition(records, comparator)
        self.emitted_records += len(records)
        self.emitted_bytes += self._buffered_bytes
        self._records = []
        self._buffered_bytes = 0
        combiner = self._job.make_combiner()
        sink = CountingSink(self._output)
        context = TaskContext(counters=self._counters, cache=self._cache, sink=sink)
        combiner.setup(context)
        for key, values in group_sorted_records(sorted_records, comparator):
            combiner.reduce(key, values, context)
        combiner.cleanup(context)
        self._counters.increment(counter_names.COMBINE_INPUT_RECORDS, len(records))
        self._counters.increment(counter_names.COMBINE_OUTPUT_RECORDS, sink.num_records)
        self.combined_records += sink.num_records
        self.combined_bytes += sink.serialized_bytes

    # ------------------------------------------------------------ interface
    def append(self, key: Any, value: Any) -> None:
        """Buffer one map emission, combining when the budget is exceeded."""
        self._records.append((key, value))
        self._buffered_bytes += record_size(key, value)
        if self._budgeted and self._over_budget():
            self.num_spills += 1
            self._combine()

    def flush(self) -> None:
        """Combine whatever remains buffered (call once, when the task ends)."""
        self._combine()


# ------------------------------------------------------- external shuffle
#: Maximum number of runs merged in one pass (the analogue of Hadoop's
#: ``io.sort.factor``).  More runs trigger intermediate merge passes, so the
#: number of simultaneously open spill files stays bounded no matter how far
#: the spill threshold sits below the shuffle volume.
MERGE_FAN_IN = 64


def iter_run_file(path: str, codec: str = "none") -> Iterator[Record]:
    """Stream the records of one spilled run file."""
    with get_codec(codec).open_read(path) as handle:
        yield from read_framed_records(handle)


def _resolve_sort_key(
    runs: List[Iterable[Record]], comparator: SortComparator
) -> Tuple[List[Iterable[Record]], Callable[[Record], Any]]:
    """Pick the record sort key for streams, preferring the fast path.

    Mirrors :func:`sort_partition`'s fallback: the fast key is validated on
    the first record of every run (re-attached to its stream afterwards);
    if any first key is unsupported, the comparison-based key is used.
    """
    fast_key = comparator.sort_key_function()
    if fast_key is identity_key:
        return runs, _record_key
    if fast_key is None:
        key_function = cmp_to_key(comparator.compare)
        return runs, lambda record: key_function(record[0])
    rebuilt: List[Iterable[Record]] = []
    usable = True
    for run in runs:
        iterator = iter(run)
        try:
            first = next(iterator)
        except StopIteration:
            rebuilt.append(iterator)
            continue
        try:
            fast_key(first[0])
        except TypeError:
            usable = False
        rebuilt.append(chain((first,), iterator))
    if usable:
        return rebuilt, lambda record: fast_key(record[0])
    key_function = cmp_to_key(comparator.compare)
    return rebuilt, lambda record: key_function(record[0])


def merge_sorted_runs(
    runs: Sequence[Iterable[Record]], comparator: SortComparator
) -> Iterator[Record]:
    """K-way merge of already-sorted record streams.

    ``heapq.merge`` is stable across its inputs (ties go to the earlier
    iterable), so merging runs in the order they were spilled reproduces the
    exact sequence a stable sort of the concatenated records would yield —
    the property that makes spilled and in-memory shuffles byte-identical.
    """
    if len(runs) == 1:
        return iter(runs[0])
    rebuilt, key = _resolve_sort_key(list(runs), comparator)
    return heapq.merge(*rebuilt, key=key)


def _merge_runs_to_file(
    paths: Sequence[str],
    comparator: SortComparator,
    partition_index: int,
    codec: str = "none",
) -> str:
    """Merge a batch of run files into one new run file (same directory)."""
    directory = os.path.dirname(paths[0])
    descriptor, merged_path = tempfile.mkstemp(
        dir=directory, prefix=f"merge-p{partition_index:05d}-", suffix=".run"
    )
    os.close(descriptor)
    with get_codec(codec).open_write(merged_path) as handle:
        for key, value in merge_sorted_runs(
            [iter_run_file(path, codec) for path in paths], comparator
        ):
            write_framed_record(handle, key, value)
    return merged_path


@dataclass(frozen=True)
class PartitionInput:
    """Input of one reduce task: spilled runs and/or buffered records.

    The object is picklable (runs are file paths, records plain tuples), so
    a process-based runner can ship it to a reduce worker, which then streams
    the merged runs locally instead of receiving a materialised partition.
    ``records`` is the shuffle's own partition buffer, not a copy of it.
    """

    partition_index: int
    run_paths: Tuple[str, ...] = ()
    records: Sequence[Record] = ()
    codec: str = "none"

    @property
    def is_spilled(self) -> bool:
        """Whether any part of this partition lives on disk."""
        return bool(self.run_paths)

    def sorted_records(self, comparator: SortComparator) -> Iterator[Record]:
        """Stream the partition's records in ``comparator`` order.

        Spilled runs are merged with a k-way heap merge; the in-memory tail
        (records buffered after the last spill) is sorted and merged last,
        matching the stable order of a single in-memory sort.  When more
        than :data:`MERGE_FAN_IN` runs exist, consecutive batches are first
        merged into intermediate run files (preserving run order, hence
        stability), so the final merge never opens an unbounded number of
        files.  Intermediate files land in the shuffle's run directory and
        are removed with it by :meth:`ExternalShuffle.cleanup`.
        """
        paths = list(self.run_paths)
        tail = 1 if self.records else 0
        while len(paths) + tail > MERGE_FAN_IN:
            merged: List[str] = []
            for begin in range(0, len(paths), MERGE_FAN_IN):
                batch = paths[begin : begin + MERGE_FAN_IN]
                if len(batch) == 1:
                    merged.append(batch[0])
                else:
                    merged.append(
                        _merge_runs_to_file(
                            batch, comparator, self.partition_index, self.codec
                        )
                    )
            paths = merged
        runs: List[Iterable[Record]] = [iter_run_file(path, self.codec) for path in paths]
        if self.records:
            runs.append(sort_partition(self.records, comparator))
        if not runs:
            return iter(())
        return merge_sorted_runs(runs, comparator)


@dataclass
class SpillStats:
    """Bookkeeping of one shuffle's spill activity."""

    num_spills: int = 0
    spilled_runs: int = 0
    spilled_records: int = 0
    spilled_bytes: int = 0

    def merge(self, other: "SpillStats") -> None:
        """Accumulate another shuffle's spill activity (worker-side spills)."""
        self.num_spills += other.num_spills
        self.spilled_runs += other.spilled_runs
        self.spilled_records += other.spilled_records
        self.spilled_bytes += other.spilled_bytes


@dataclass(frozen=True)
class MapTaskSpills:
    """Output of a map task that ran in a worker: nothing but run files.

    ``run_paths[p]`` are the sorted run files of reduce partition ``p``, in
    spill order; ``stats`` counts the budget-triggered spills among them.
    The object carries only paths and counts, so shipping it across the
    process boundary costs a few hundred bytes regardless of how much the
    task emitted; the parent folds it into its shuffle with
    :meth:`ExternalShuffle.adopt_runs`.
    """

    run_paths: Tuple[Tuple[str, ...], ...]
    stats: SpillStats


class ExternalShuffle:
    """Sort-spill-merge shuffle with a bounded in-memory buffer.

    Records are appended with :meth:`add`; once the serialised size of the
    buffered records exceeds ``spill_threshold_bytes`` every non-empty
    partition buffer is sorted and written out as one run file.  After
    :meth:`finalize`, :meth:`partition_input` describes each reduce
    partition; :class:`PartitionInput.sorted_records` streams it back in
    sort order without ever materialising the partition.

    The in-memory budget is expressed in serialised bytes
    (``spill_threshold_bytes``) and/or as a record count
    (``spill_threshold_records``); a spill triggers as soon as *either*
    configured budget is exceeded.  With neither set, spilling is disabled:
    the shuffle then degenerates to the plain in-memory partitioning of
    :func:`partition_records` (and :meth:`partition_input` carries the raw
    buffered records).  ``codec`` selects the stream compression of the run
    files (see :mod:`repro.util.codecs`).
    """

    def __init__(
        self,
        partitioner: Partitioner,
        comparator: SortComparator,
        num_partitions: int,
        spill_threshold_bytes: Optional[int] = None,
        spill_threshold_records: Optional[int] = None,
        spill_dir: Optional[str] = None,
        codec: str = "none",
    ) -> None:
        if num_partitions < 1:
            raise MapReduceError("num_partitions must be >= 1")
        if spill_threshold_bytes is not None and spill_threshold_bytes < 1:
            raise MapReduceError("spill_threshold_bytes must be >= 1 or None")
        if spill_threshold_records is not None and spill_threshold_records < 1:
            raise MapReduceError("spill_threshold_records must be >= 1 or None")
        self.partitioner = partitioner
        self.comparator = comparator
        self.num_partitions = num_partitions
        self.spill_threshold_bytes = spill_threshold_bytes
        self.spill_threshold_records = spill_threshold_records
        self.spill_dir = spill_dir
        self.codec = codec
        self.stats = SpillStats()
        self._buffers: List[List[Record]] = [[] for _ in range(num_partitions)]
        self._buffered_bytes = 0
        self._buffered_records = 0
        self._runs: List[List[str]] = [[] for _ in range(num_partitions)]
        self._run_dir: Optional[str] = None
        self._finalized = False

    # ----------------------------------------------------------- internals
    def _run_directory(self) -> str:
        # Every shuffle spills into its own unique directory — also under an
        # explicit ``spill_dir`` — so concurrent shuffles cannot clobber each
        # other's identically numbered run files, and cleanup() can remove
        # exactly the files this shuffle wrote.
        if self._run_dir is None:
            if self.spill_dir is not None:
                os.makedirs(self.spill_dir, exist_ok=True)
                self._run_dir = tempfile.mkdtemp(prefix="repro-shuffle-", dir=self.spill_dir)
            else:
                self._run_dir = tempfile.mkdtemp(prefix="repro-shuffle-")
        return self._run_dir

    def _spill(self, counted: bool = True) -> None:
        """Sort and write every non-empty partition buffer as one run file.

        ``counted=False`` writes the runs without recording them in
        :attr:`stats` (see :meth:`finalize`).
        """
        directory = self._run_directory()
        codec = get_codec(self.codec)
        spill = SpillStats(num_spills=1, spilled_bytes=self._buffered_bytes)
        for index, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            run = sort_partition(buffer, self.comparator)
            path = os.path.join(
                directory, f"spill-{self.stats.num_spills:06d}-p{index:05d}.run"
            )
            with codec.open_write(path) as handle:
                for key, value in run:
                    write_framed_record(handle, key, value)
            self._runs[index].append(path)
            spill.spilled_runs += 1
            spill.spilled_records += len(run)
            self._buffers[index] = []
        self._buffered_bytes = 0
        self._buffered_records = 0
        if counted:
            self.stats.merge(spill)

    # ------------------------------------------------------------ interface
    @property
    def spilled(self) -> bool:
        """Whether any run has been written to disk."""
        return self.stats.num_spills > 0

    def add(self, key: Any, value: Any, size: Optional[int] = None) -> None:
        """Route one map output record to its partition buffer.

        ``size`` is the record's :func:`record_size` when the caller has
        already measured it (a :class:`CountingSink` upstream); the budgeted
        shuffle measures the record itself only when it arrives unmeasured.
        """
        if self._finalized:
            raise MapReduceError("cannot add records to a finalized shuffle")
        index = self.partitioner.partition(key, self.num_partitions)
        if not 0 <= index < self.num_partitions:
            raise MapReduceError(
                f"partitioner returned index {index} outside [0, {self.num_partitions})"
            )
        self._buffers[index].append((key, value))
        if self.spill_threshold_bytes is None and self.spill_threshold_records is None:
            return
        # Bytes are metered under either budget so spilled-bytes counters
        # stay meaningful when the trigger is the record count.
        self._buffered_bytes += record_size(key, value) if size is None else size
        self._buffered_records += 1
        if (
            self.spill_threshold_bytes is not None
            and self._buffered_bytes > self.spill_threshold_bytes
        ) or (
            self.spill_threshold_records is not None
            and self._buffered_records > self.spill_threshold_records
        ):
            self._spill()

    def add_records(self, records: Iterable[Record]) -> None:
        """Route a batch of map output records."""
        for key, value in records:
            self.add(key, value)

    def finalize(self, spill_remainder: bool = False) -> None:
        """Seal the shuffle; once spilled, the in-memory remainder spills too.

        Flushing the tail keeps the memory ceiling at the spill threshold for
        the whole reduce phase and lets process-based runners hand reduce
        workers nothing but run file paths.  ``spill_remainder`` writes the
        buffered remainder out even when no budget spill ever triggered —
        how a worker-local shuffle hands a map task's entire output over as
        run files.  That hand-off is not a spill: it leaves :attr:`stats`
        (hence the job's spill counters) untouched.
        """
        if self._finalized:
            return
        if (self.spilled or spill_remainder) and any(self._buffers):
            self._spill(counted=self.spilled)
        self._finalized = True

    def ensure_run_dir(self) -> str:
        """Create (if needed) and return this shuffle's private run directory.

        A parent runner hands the directory to its map workers as the root
        their worker-local shuffles write runs under, so :meth:`cleanup`
        removes worker runs together with the parent's own.
        """
        return self._run_directory()

    def run_paths(self) -> List[Tuple[str, ...]]:
        """The spilled run paths of every partition, in spill order."""
        return [tuple(runs) for runs in self._runs]

    def adopt_runs(
        self,
        run_paths: Sequence[Sequence[str]],
        stats: Optional[SpillStats] = None,
    ) -> None:
        """Fold externally spilled runs (one worker map task) into this shuffle.

        ``run_paths`` must describe every partition.  Runs are appended in
        call order, so a parent adopting task results in task order
        reproduces exactly the record order :func:`merge_sorted_runs`'s
        stability contract requires.  ``stats`` (the worker shuffle's spill
        activity) is accumulated so spill counters cover worker-side spills.
        """
        if self._finalized:
            raise MapReduceError("cannot adopt runs into a finalized shuffle")
        if len(run_paths) != self.num_partitions:
            raise MapReduceError(
                f"adopted runs describe {len(run_paths)} partitions, "
                f"expected {self.num_partitions}"
            )
        for index, paths in enumerate(run_paths):
            self._runs[index].extend(paths)
        if stats is not None:
            self.stats.merge(stats)

    def partition_input(self, index: int) -> PartitionInput:
        """Describe the input of reduce partition ``index``."""
        if not 0 <= index < self.num_partitions:
            raise MapReduceError(
                f"partition index {index} outside [0, {self.num_partitions})"
            )
        return PartitionInput(
            partition_index=index,
            run_paths=tuple(self._runs[index]),
            records=self._buffers[index],
            codec=self.codec,
        )

    def partition_inputs(self) -> List[PartitionInput]:
        """Describe every reduce partition."""
        return [self.partition_input(index) for index in range(self.num_partitions)]

    def cleanup(self) -> None:
        """Delete spilled run files (safe to call multiple times)."""
        if self._run_dir is not None:
            shutil.rmtree(self._run_dir, ignore_errors=True)
            self._run_dir = None
        self._runs = [[] for _ in range(self.num_partitions)]

    def __enter__(self) -> "ExternalShuffle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.cleanup()

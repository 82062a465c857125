"""An in-process MapReduce engine modelled on Hadoop.

The engine exists so that the paper's algorithms can be written against the
same contract they were designed for — ``map()``, ``reduce()``, an optional
combiner, a custom partitioner and a custom sort comparator — while running
on a single machine.  It reproduces the quantities the paper measures:

* ``MAP_OUTPUT_RECORDS`` and ``MAP_OUTPUT_BYTES`` counters at the shuffle
  boundary (Figures 4 and 5, panels (b), (c), (e), (f));
* the number of MapReduce jobs a method launches (the per-job fixed cost the
  paper attributes to the APRIORI methods);
* measured wallclock per task and per job, on one process or on a pool of
  worker processes (the resource-scaling experiment, Figure 7, runs both).

Execution backends
------------------

One run loop (:meth:`LocalJobRunner.run`) drives every job: it submits the
tasks of each phase to an executor and folds their results in task order.
Two runners supply the executor, selected by name through
:func:`make_runner` / :class:`~repro.config.ExecutionConfig` (or the CLI's
``--runner`` flag) and producing identical outputs and counter totals:

* :class:`LocalJobRunner` (``"local"``) — every task runs inline, in the
  calling thread; the default and the reference for correctness;
* :class:`ProcessPoolJobRunner` (``"processes"``) — tasks fanned out over
  worker processes for real multi-core speed-up.  Jobs must be picklable:
  use module-level mapper/reducer classes and ``functools.partial`` (not
  lambdas) as factories.

A map task always emits into a shuffle: the job's own when it runs inline,
a worker-local one whose sorted run files the job's shuffle adopts when it
runs in a worker — as a Hadoop map task leaves its output behind as local
runs.  A task failure surfaces the same way on both: a
:class:`~repro.exceptions.ReproError` unchanged, anything else as a
:class:`~repro.exceptions.MapReduceError` naming job, phase and task.

Spill semantics
---------------

Every job shuffles through
:class:`~repro.mapreduce.shuffle.ExternalShuffle`.  With a
``spill_threshold_bytes`` budget configured, map output past the budget is
sorted and spilled as varint-framed runs to temp files, and each reducer
streams its partition from a k-way ``heapq.merge`` of those runs — the
shuffle's memory ceiling then stays at the budget regardless of input size,
and results are byte-identical to the in-memory path.  Runs that never hit
the budget (or run with the default ``None``) report no spill counters on
either backend: the run files a worker's map task hands over are the
transport, not a spill.
"""

from repro.mapreduce.counters import CounterGroup, Counters
from repro.mapreduce.dataset import (
    CollectionDataset,
    Dataset,
    DatasetStorage,
    FileDataset,
    MemoryDataset,
    Shard,
    as_dataset,
)
from repro.mapreduce.job import (
    Combiner,
    IdentityMapper,
    JobSpec,
    Mapper,
    Partitioner,
    Reducer,
    SortComparator,
)
from repro.mapreduce.runner import JobResult, LocalJobRunner
from repro.mapreduce.process import ProcessPoolJobRunner, make_runner
from repro.mapreduce.shuffle import ExternalShuffle, PartitionInput
from repro.mapreduce.pipeline import JobPipeline, PipelineResult
from repro.mapreduce.cache import DistributedCache

__all__ = [
    "CollectionDataset",
    "Combiner",
    "CounterGroup",
    "Counters",
    "Dataset",
    "DatasetStorage",
    "DistributedCache",
    "ExternalShuffle",
    "FileDataset",
    "IdentityMapper",
    "JobPipeline",
    "JobResult",
    "JobSpec",
    "LocalJobRunner",
    "Mapper",
    "MemoryDataset",
    "PartitionInput",
    "Partitioner",
    "PipelineResult",
    "ProcessPoolJobRunner",
    "Reducer",
    "Shard",
    "SortComparator",
    "as_dataset",
    "make_runner",
]

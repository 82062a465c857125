"""The multi-core backend: tasks in worker processes, selection by name.

:class:`ProcessPoolJobRunner` is the backend that escapes the GIL.  The run
loop, the task bodies and the failure contract are
:class:`~repro.mapreduce.runner.LocalJobRunner`'s, unchanged; this module
decides only *which executor* runs the tasks (a
:class:`concurrent.futures.ProcessPoolExecutor`) and *how a task crosses
the process boundary*:

* everything crossing the boundary must pickle.  Job components that do not
  (lambda factories, closures) are rejected up front with a
  :class:`~repro.exceptions.MapReduceError` naming the offending component
  and the mapper/reducer class it produces;
* the job and cache are pickled once per run and the same bytes shipped to
  every task, keeping per-submit serialisation to a memcpy (tasks never
  publish to the cache; pipelines publish between jobs, in the parent);
* a map task emits into a worker-local shuffle rooted in the job shuffle's
  run directory (same budget, varint spill codec and ``shard_codec`` stream
  compression) and hands its whole output over as sorted run files — with
  or without a spill budget, as a Hadoop map task does.  Only the run paths
  travel back, as a :class:`~repro.mapreduce.shuffle.MapTaskSpills`; map
  output never crosses the process boundary as pickled records;
* likewise reduce workers receive only run *file paths* (see
  :class:`~repro.mapreduce.shuffle.PartitionInput`) and stream their
  partition from a fan-in-capped k-way merge, so neither the parent nor
  any worker ever materialises a partition.

Counters are those of the sequential runner: the hand-off of a map task's
output is not a spill, so without a budget the complete counter set is
identical on both backends.

:func:`make_runner` builds the runner an
:class:`~repro.config.ExecutionConfig` names, which is how the CLI's
``--runner`` / ``--spill-threshold`` flags and the experiment harness reach
the engine.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import Executor, ProcessPoolExecutor
from functools import partial
from multiprocessing import get_context
from typing import Any, Callable, Dict, Optional, Tuple

from repro.config import ExecutionConfig
from repro.exceptions import MapReduceError
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.job import JobSpec
from repro.mapreduce.runner import LocalJobRunner, TaskResult
from repro.mapreduce.shuffle import ExternalShuffle, MapTaskSpills

#: Job attributes probed (in order) when the job fails to pickle, paired
#: with whether the attribute is a factory (called to learn the task class).
_JOB_COMPONENTS: Tuple[Tuple[str, bool], ...] = (
    ("mapper_factory", True),
    ("reducer_factory", True),
    ("combiner_factory", True),
    ("partitioner", False),
    ("sort_comparator", False),
)


def _run_task_in_worker(
    job_bytes: bytes,
    cache_bytes: bytes,
    shuffle_options: Dict[str, Any],
    phase: str,
    task_index: int,
    task_input: Any,
    reduce_sink: Optional[Any] = None,
) -> TaskResult:
    """Execute one map or reduce task inside a worker process.

    Runs the sequential runner's task implementations, so task semantics
    cannot drift between backends.  With a
    :class:`~repro.mapreduce.dataset.ShardSink` the reduce output is framed
    to its shard file *in the worker* and only the shard description is
    pickled back.  A map task's emissions flow (through the combine buffer,
    when the job has one) into a worker-local
    :class:`~repro.mapreduce.shuffle.ExternalShuffle`; the remainder is
    written out when the task ends and only the run paths are pickled back.
    """
    job: JobSpec = pickle.loads(job_bytes)
    cache: DistributedCache = pickle.loads(cache_bytes)
    runner = LocalJobRunner(cache=cache, **shuffle_options)
    if phase == "reduce":
        return runner.execute_task(job, phase, task_index, task_input, reduce_sink)
    shuffle = runner.new_shuffle(job)
    try:
        _, metrics, counters = runner.execute_task(job, phase, task_index, task_input, shuffle)
        shuffle.finalize(spill_remainder=True)
    except BaseException:
        # Remove this task's partial runs right away; the parent's
        # shuffle cleanup would catch them too, but a crashed task
        # should not leave debris even transiently.
        shuffle.cleanup()
        raise
    return MapTaskSpills(tuple(shuffle.run_paths()), shuffle.stats), metrics, counters


class ProcessPoolJobRunner(LocalJobRunner):
    """Drop-in replacement for :class:`LocalJobRunner` using worker processes.

    Parameters
    ----------
    max_workers:
        Number of worker processes (defaults to the machine's CPU count).
    mp_context:
        Optional multiprocessing start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` uses the platform default.
    **runner_options:
        Every :class:`LocalJobRunner` parameter, unchanged.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        **runner_options: Any,
    ) -> None:
        super().__init__(**runner_options)
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise MapReduceError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.mp_context = mp_context

    # ---------------------------------------------------------- serialising
    def _describe_component(self, job: JobSpec, attribute: str, is_factory: bool) -> str:
        value = getattr(job, attribute)
        if is_factory:
            try:
                produced = type(value()).__name__
            except Exception:
                produced = "<unknown>"
            return f"{attribute} (producing {produced})"
        return f"{attribute} ({type(value).__name__})"

    def _pickle_job(self, job: JobSpec) -> bytes:
        """Serialise the job once, naming the unpicklable component on failure."""
        try:
            return pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            for attribute, is_factory in _JOB_COMPONENTS:
                value = getattr(job, attribute)
                if value is None:
                    continue
                try:
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception as component_exc:
                    component = self._describe_component(job, attribute, is_factory)
                    raise MapReduceError(
                        f"job {job.name!r} cannot run on the process backend: "
                        f"{component} does not pickle: {component_exc}. Use a "
                        "module-level class or functools.partial instead of a "
                        "lambda or closure."
                    ) from component_exc
            raise MapReduceError(
                f"job {job.name!r} cannot run on the process backend: "
                f"the job does not pickle: {exc}"
            ) from exc

    def _pickle_cache(self, job: JobSpec) -> bytes:
        """Serialise the distributed cache once per job run."""
        try:
            return pickle.dumps(self.cache, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise MapReduceError(
                f"job {job.name!r} cannot run on the process backend: "
                f"the distributed cache does not pickle: {exc}"
            ) from exc

    # ------------------------------------------------------- executor hooks
    def _make_executor(self, num_tasks: int) -> Executor:
        workers = max(1, min(self.max_workers, num_tasks))
        context = get_context(self.mp_context) if self.mp_context else None
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    def _bind_tasks(
        self, job: JobSpec, shuffle: ExternalShuffle
    ) -> Tuple[Callable[..., TaskResult], Callable[..., TaskResult]]:
        """Both task callables run :func:`_run_task_in_worker` on bytes pickled once.

        Worker-local shuffles are rooted under the job shuffle's run
        directory, so its cleanup removes their run files (including
        partial files left by a crashed task) together with its own.
        """
        in_worker = partial(
            _run_task_in_worker,
            self._pickle_job(job),
            self._pickle_cache(job),
            {
                "spill_threshold_bytes": self.spill_threshold_bytes,
                "spill_threshold_records": self.spill_threshold_records,
                "spill_dir": shuffle.ensure_run_dir(),
                "shard_codec": self.shard_codec,
            },
        )
        return partial(in_worker, "map"), partial(in_worker, "reduce")


def make_runner(
    execution: Optional[ExecutionConfig] = None,
    cache: Optional[DistributedCache] = None,
    default_map_tasks: int = 4,
) -> LocalJobRunner:
    """Instantiate the runner described by ``execution``.

    ``None`` yields the default sequential runner.  ``max_workers`` is
    forwarded to the ``processes`` backend (``None`` selects the CPU count)
    and ignored by ``local``.
    """
    execution = execution if execution is not None else ExecutionConfig()
    options: Dict[str, Any] = {
        "cache": cache,
        "default_map_tasks": default_map_tasks,
        "spill_threshold_bytes": execution.spill_threshold_bytes,
        "spill_threshold_records": execution.spill_threshold_records,
        "spill_dir": execution.spill_dir,
        "shard_codec": execution.shard_codec,
        "materialize": execution.materialize,
        "dataset_dir": execution.dataset_dir,
    }
    if execution.runner == "processes":
        return ProcessPoolJobRunner(max_workers=execution.max_workers, **options)
    return LocalJobRunner(**options)

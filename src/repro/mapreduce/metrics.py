"""Per-task and per-job execution metrics.

These metrics are produced by the runner for every map and reduce task and
kept per job by the pipeline, so a run's measured wallclock can be split
into map, reduce and framework time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.util.metrics import MetricsRegistry, default_registry


@dataclass(frozen=True)
class TaskMetrics:
    """Work performed by a single map or reduce task.

    Attributes
    ----------
    task_type:
        ``"map"`` or ``"reduce"``.
    task_index:
        Index of the task within its phase.
    input_records / output_records:
        Key-value pairs consumed and produced by the task.
    output_bytes:
        Serialised size of the produced records (shuffle bytes for map tasks,
        job output bytes for reduce tasks).
    elapsed_seconds:
        Measured wallclock seconds the task took in-process.
    """

    task_type: str
    task_index: int
    input_records: int
    output_records: int
    output_bytes: int
    elapsed_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.task_type not in ("map", "reduce"):
            raise ValueError(f"task_type must be 'map' or 'reduce', got {self.task_type!r}")


@dataclass
class JobMetrics:
    """Aggregated metrics of one job run."""

    job_name: str
    map_tasks: List[TaskMetrics] = field(default_factory=list)
    reduce_tasks: List[TaskMetrics] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def num_map_tasks(self) -> int:
        return len(self.map_tasks)

    @property
    def num_reduce_tasks(self) -> int:
        return len(self.reduce_tasks)

    @property
    def map_output_records(self) -> int:
        return sum(task.output_records for task in self.map_tasks)

    @property
    def map_output_bytes(self) -> int:
        return sum(task.output_bytes for task in self.map_tasks)

    @property
    def reduce_output_records(self) -> int:
        return sum(task.output_records for task in self.reduce_tasks)


def publish_job_metrics(result: Any, registry: Optional[MetricsRegistry] = None) -> None:
    """Mirror one :class:`~repro.mapreduce.runner.JobResult` into a registry.

    Hadoop-style counters stay the measurement surface the experiment
    harness reads (they are what the paper reports); this adapter
    additionally folds each completed job into the process-wide metrics
    registry so a long pipeline run is observable from the same
    Prometheus exposition as the serving tier: jobs by name, per-job
    wallclock, and every counter as a labelled cumulative series.
    """
    registry = registry if registry is not None else default_registry()
    registry.counter(
        "mapreduce_jobs_total", "MapReduce jobs completed, by job name", labels=("job",)
    ).inc(job=result.job_name)
    registry.histogram(
        "mapreduce_job_seconds", "Per-job in-process wallclock in seconds"
    ).observe(result.elapsed_seconds)
    counters = registry.counter(
        "mapreduce_counters_total",
        "Hadoop-style job counters, by group and counter name",
        labels=("group", "counter"),
    )
    for group_name, values in result.counters.as_dict().items():
        for counter_name, value in values.items():
            if value > 0:
                counters.inc(value, group=group_name, counter=counter_name)

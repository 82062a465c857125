"""Multi-job pipelines.

The APRIORI methods launch one MapReduce job per n-gram length (Algorithms 2
and 3), and the maximality/closedness extension of SUFFIX-σ adds a
post-filtering job (Section VI.A).  :class:`JobPipeline` tracks every job run
of a method, aggregates counters across jobs (the paper reports bytes/records
as "aggregates over all Hadoop jobs launched") and exposes the per-job
metrics (per-task work and wallclock).

Job outputs are datasets (see :mod:`repro.mapreduce.dataset`), and the
pipeline applies a *retention policy* to them: with the default
``"final"`` policy each job's output is released as soon as the next job
of the pipeline has consumed it — in-memory outputs are freed, on-disk
shards deleted — so a long APRIORI chain holds at most one intermediate
result at a time.  Counters and metrics are always kept, because they are
what the harness measures.  ``"all"`` retains every output (the setting
the byte-identity agreement tests use to compare jobs pairwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple, Union

from repro.config import RETENTION_POLICIES
from repro.exceptions import MapReduceError
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.counters import Counters
from repro.mapreduce.dataset import Dataset
from repro.mapreduce.job import JobSpec
from repro.mapreduce.metrics import JobMetrics, publish_job_metrics
from repro.mapreduce.runner import JobResult, LocalJobRunner

Record = Tuple[Any, Any]

#: Retain only the final job's output (the default; intermediates are
#: released once consumed) — see ``repro.config.RETENTION_POLICIES``.
RETENTION_FINAL = "final"
#: Retain every job's output.
RETENTION_ALL = "all"


@dataclass
class PipelineResult:
    """Aggregated outcome of all jobs a method launched."""

    job_results: List[JobResult] = field(default_factory=list)

    @property
    def num_jobs(self) -> int:
        return len(self.job_results)

    @property
    def counters(self) -> Counters:
        """Counters aggregated over every job of the pipeline."""
        total = Counters()
        for result in self.job_results:
            total.merge(result.counters)
        return total

    @property
    def job_metrics(self) -> List[JobMetrics]:
        return [result.metrics for result in self.job_results]

    @property
    def elapsed_seconds(self) -> float:
        """Total measured in-process wallclock over all jobs."""
        return sum(result.elapsed_seconds for result in self.job_results)

    @property
    def final_output_dataset(self) -> Optional[Dataset]:
        """Output dataset of the last job (``None`` if no job ran)."""
        if not self.job_results:
            return None
        return self.job_results[-1].output_dataset

    @property
    def final_output(self) -> List[Record]:
        """Output records of the last job (empty if no job ran)."""
        if not self.job_results:
            return []
        return self.job_results[-1].output

    def release_outputs(self) -> None:
        """Release every retained job output (counters/metrics survive)."""
        for result in self.job_results:
            if not result.output_released:
                result.release_output()


class JobPipeline:
    """Runs a sequence of jobs sharing one distributed cache.

    A pipeline is the unit of measurement for an algorithm run: all counters
    and metrics of the jobs it executed are retained so the harness can
    report totals exactly the way the paper does.  ``retention`` governs how
    long job *outputs* live (see the module docstring).
    """

    def __init__(
        self,
        runner: Optional[LocalJobRunner] = None,
        cache: Optional[DistributedCache] = None,
        default_map_tasks: int = 4,
        retention: str = RETENTION_FINAL,
    ) -> None:
        if retention not in RETENTION_POLICIES:
            raise MapReduceError(
                f"retention must be one of {', '.join(RETENTION_POLICIES)}, "
                f"got {retention!r}"
            )
        if cache is None and runner is not None:
            # Adopt the runner's cache so that objects the pipeline publishes
            # (e.g. APRIORI-SCAN's dictionary) are the ones tasks read.
            cache = runner.cache
        self.cache = cache if cache is not None else DistributedCache()
        self.runner = runner if runner is not None else LocalJobRunner(
            cache=self.cache, default_map_tasks=default_map_tasks
        )
        self.retention = retention
        self.result = PipelineResult()

    def materialize_input(self, records: Iterable[Record], name: str = "input") -> Dataset:
        """Materialise an input record stream under the runner's policy.

        In disk mode the stream is written straight to a sharded on-disk
        dataset; in memory mode it is buffered once.  Either way the result
        can feed several jobs (APRIORI's per-length scans) without being
        re-prepared.
        """
        return self.runner.materialize_dataset(records, name=name)

    def run_job(
        self, job: JobSpec, input_records: Union[Dataset, Iterable[Record]]
    ) -> JobResult:
        """Run one job, recording its result in the pipeline history.

        Under the ``"final"`` retention policy, completing this job releases
        the previous job's output — by then the only consumer (this job's
        input stream) has read it.
        """
        job_result = self.runner.run(job, input_records)
        publish_job_metrics(job_result)
        if self.retention == RETENTION_FINAL and self.result.job_results:
            previous = self.result.job_results[-1]
            if not previous.output_released:
                previous.release_output()
        self.result.job_results.append(job_result)
        return job_result

    @property
    def counters(self) -> Counters:
        """Counters aggregated over all jobs run so far."""
        return self.result.counters

    @property
    def num_jobs(self) -> int:
        return self.result.num_jobs

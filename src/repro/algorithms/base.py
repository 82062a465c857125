"""Shared infrastructure of the four n-gram counting algorithms.

Every algorithm is an :class:`NGramCounter`: it streams input records from a
document collection (optionally applying the document-splitting optimisation
of Section V), materialises them once under the execution configuration's
policy — an in-memory list or a sharded on-disk
:class:`~repro.mapreduce.dataset.FileDataset` — runs one or more MapReduce
jobs through a :class:`~repro.mapreduce.pipeline.JobPipeline`, and returns a
:class:`CountingResult` bundling the computed statistics with the measured
counters and per-job metrics — the exact quantities the paper's experiments
report (wallclock, bytes transferred, number of records).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.algorithms.doc_split import split_sequence_at_infrequent_terms, unigram_frequencies
from repro.config import ExecutionConfig, NGramJobConfig, StoreConfig
from repro.exceptions import ConfigurationError
from repro.mapreduce.process import make_runner
from repro.mapreduce.counters import Counters
from repro.mapreduce.dataset import Dataset
from repro.mapreduce.pipeline import JobPipeline, PipelineResult
from repro.ngrams.statistics import NGramStatistics
from repro.util.memory import PeakMemoryTracker
from repro.util.timer import Timer

Record = Tuple[Any, Tuple]


class SupportsRecords:
    """Structural protocol for algorithm inputs (anything with ``records()``)."""

    def records(self) -> Iterable[Record]:  # pragma: no cover - interface only
        raise NotImplementedError


@dataclass
class CountingResult:
    """Outcome of one algorithm run.

    Attributes
    ----------
    algorithm:
        Canonical algorithm name (``"NAIVE"``, ``"APRIORI-SCAN"``, ...).
    config:
        The :class:`~repro.config.NGramJobConfig` the run used.
    statistics:
        The computed n-gram statistics (collection or document frequencies).
    pipeline:
        Per-job results: counters, metrics and outputs of every MapReduce job
        the method launched.
    elapsed_seconds:
        Measured in-process wallclock of the whole computation.
    peak_memory_bytes:
        High-water mark of Python-level allocations during the run
        (``None`` unless the run was started with ``track_memory=True``).
    store_dir:
        Directory the run's statistics were persisted to as a queryable
        n-gram store (``None`` unless the run was given a ``store_dir``).
    """

    algorithm: str
    config: NGramJobConfig
    statistics: NGramStatistics
    pipeline: PipelineResult
    elapsed_seconds: float
    peak_memory_bytes: Optional[int] = None
    store_dir: Optional[str] = None

    @property
    def counters(self) -> Counters:
        """Counters aggregated over every job the method launched."""
        return self.pipeline.counters

    @property
    def num_jobs(self) -> int:
        """Number of MapReduce jobs launched (1 for NAIVE and SUFFIX-σ)."""
        return self.pipeline.num_jobs

    @property
    def map_output_records(self) -> int:
        """The paper's "# records" measure (aggregated over all jobs)."""
        return self.counters.map_output_records

    @property
    def map_output_bytes(self) -> int:
        """The paper's "bytes transferred" measure (aggregated over all jobs)."""
        return self.counters.map_output_bytes


class NGramCounter:
    """Abstract base class of the four counting algorithms.

    ``execution`` selects the MapReduce backend the counter's pipelines run
    on (sequential, thread pool or process pool, plus the shuffle's spill
    budget and the dataset materialisation mode); ``None`` is the
    sequential in-memory default.
    """

    #: Canonical name used in reports; subclasses override.
    name: str = "ABSTRACT"

    def __init__(
        self,
        config: NGramJobConfig,
        num_map_tasks: int = 4,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        if num_map_tasks < 1:
            raise ConfigurationError("num_map_tasks must be >= 1")
        self.config = config
        self.num_map_tasks = num_map_tasks
        self.execution = execution

    # ------------------------------------------------------------ plumbing
    def iter_input_records(self, collection: SupportsRecords) -> Iterator[Record]:
        """Stream input records, applying document splitting if enabled.

        The collection yields ``(doc_id, term_sequence)`` pairs, one per
        sentence (sentence boundaries are n-gram barriers).  With
        ``config.split_documents`` the sequences are additionally split at
        terms occurring fewer than τ times (this costs one extra streaming
        pass over the collection for the unigram frequencies).  The yielded
        records are keyed by ``(doc_id, sequence_index)`` so that every
        input sequence has a globally unique identifier — APRIORI-INDEX
        needs this to keep positions from different sentences of the same
        document apart.

        Nothing is materialised here: the pipeline decides whether the
        stream ends up as an in-memory list or a sharded on-disk dataset.
        """
        if self.config.split_documents:
            frequencies = unigram_frequencies(collection.records())
            frequent_terms = {
                term
                for term, count in frequencies.items()
                if count >= self.config.min_frequency
            }

            def stream() -> Iterator[Tuple[Any, Tuple]]:
                for doc_id, sequence in collection.records():
                    for fragment in split_sequence_at_infrequent_terms(
                        sequence, frequent_terms
                    ):
                        yield doc_id, fragment

            source: Iterable[Tuple[Any, Tuple]] = stream()
        else:
            source = collection.records()
        for sequence_index, (doc_id, sequence) in enumerate(source):
            yield (doc_id, sequence_index), tuple(sequence)

    def prepare_records(self, collection: SupportsRecords) -> List[Record]:
        """Materialise the input records (compatibility helper for callers
        that want a plain list; the engine itself streams through
        :meth:`iter_input_records`)."""
        return list(self.iter_input_records(collection))

    def _new_pipeline(self) -> JobPipeline:
        if self.execution is None:
            return JobPipeline(default_map_tasks=self.num_map_tasks)
        runner = make_runner(self.execution, default_map_tasks=self.num_map_tasks)
        return JobPipeline(runner=runner, retention=self.execution.retention)

    # ----------------------------------------------------------------- API
    def run(
        self,
        collection: SupportsRecords,
        track_memory: bool = False,
        store_dir: Optional[str] = None,
        store: Optional[StoreConfig] = None,
    ) -> CountingResult:
        """Run the algorithm over ``collection`` and return its result.

        With ``track_memory`` the run is wrapped in a
        :class:`~repro.util.memory.PeakMemoryTracker` and the traced peak
        lands on :attr:`CountingResult.peak_memory_bytes`.  With
        ``store_dir`` the computed statistics are additionally persisted as
        a queryable on-disk n-gram store (see :mod:`repro.ngramstore`),
        configured by ``store`` and built under this counter's execution
        configuration.
        """
        pipeline = self._new_pipeline()
        tracker = PeakMemoryTracker() if track_memory else None
        if tracker is not None:
            tracker.start()
        try:
            with Timer() as timer:
                dataset = pipeline.materialize_input(
                    self.iter_input_records(collection), name=f"{self.name.lower()}-input"
                )
                statistics = self._execute(dataset, pipeline, collection)
                # The statistics are collected; drop the materialised input
                # (in disk mode this deletes the on-disk corpus copy) rather
                # than letting it live as long as the result objects.
                dataset.release()
        finally:
            peak = tracker.stop() if tracker is not None else None
        # Persist outside both the timer and the tracker: the measured
        # wallclock and peak stay exactly what the counting run produced.
        if store_dir is not None:
            self._persist_store(statistics, store_dir, collection, store)
        return CountingResult(
            algorithm=self.name,
            config=self.config,
            statistics=statistics,
            pipeline=pipeline.result,
            elapsed_seconds=timer.elapsed,
            peak_memory_bytes=peak,
            store_dir=store_dir,
        )

    def _persist_store(
        self,
        statistics: NGramStatistics,
        store_dir: str,
        collection: SupportsRecords,
        store: Optional[StoreConfig],
    ) -> str:
        """Persist ``statistics`` as an n-gram store under ``store_dir``.

        The total-order-sort build job runs in a *separate* pipeline (same
        execution configuration) so the counting run's measured counters
        and metrics — the quantities the paper's experiments report — stay
        exactly what the counting jobs produced.
        """
        from repro.ngramstore.build import sort_into_store

        if store is not None and store.min_frequency > 1 and self.config.min_frequency != 1:
            # The algorithms prune below τ at emit time, so a counting run
            # with min_frequency > 1 never produces the [1, τ) counts the
            # residual sidecar must hold — the split belongs to the store
            # build (count at τ=1, threshold at persist).
            raise ConfigurationError(
                f"store min_frequency={store.min_frequency} needs the raw τ=1 "
                f"count table, but the counting run filters at "
                f"min_frequency={self.config.min_frequency}; count with "
                "min_frequency=1 and let the store build apply the threshold"
            )

        vocabulary = getattr(collection, "vocabulary", None)
        writer = sort_into_store(
            statistics.items(),
            store_dir,
            store=store,
            execution=self.execution,
            name=self.name.lower(),
        )
        # Unigram aggregates are recorded in the manifest so store-backed
        # language models construct without scanning the store.
        writer.commit(
            {
                "algorithm": self.name,
                "min_frequency": self.config.min_frequency,
                "max_length": self.config.max_length,
                "num_ngrams": len(statistics),
                "unigram_total": writer.unigram_total,
                "vocabulary_size": writer.vocabulary_size,
            },
            None if vocabulary is None else vocabulary.to_lines(),
        )
        return store_dir

    # ------------------------------------------------------------ subclass
    def _execute(
        self,
        records: Dataset,
        pipeline: JobPipeline,
        collection: SupportsRecords,
    ) -> NGramStatistics:
        """Run the algorithm's MapReduce job(s); return the statistics.

        ``records`` is the materialised input dataset; implementations pass
        it (or a previous job's ``output_dataset``) to ``pipeline.run_job``,
        which streams it split by split.  Plain record lists are accepted
        too, for direct calls from tests.
        """
        raise NotImplementedError

"""One driver per table / figure of the paper's evaluation (Section VII).

Every function returns plain data structures (measurements, sweeps,
histograms) and leaves formatting to :mod:`repro.harness.report`; the
benchmark scripts under ``benchmarks/`` and ``repro experiment`` call these
functions and print the paper-style rows.  Every wallclock is measured
in-process; nothing is modelled.

The experiments mirror the paper's settings with scaled-down datasets and τ
values (see :mod:`repro.harness.datasets`):

* Table I — dataset characteristics;
* Figure 2 — output characteristics (τ=5, σ=∞) as a 2-d exponential
  histogram over n-gram length and collection frequency;
* Figure 3 — the language-model (σ=5, low τ) and analytics (σ=100, higher τ)
  use cases, all four methods;
* Figure 4 — sweep of the minimum collection frequency τ at σ=5;
* Figure 5 — sweep of the maximum length σ at a per-dataset τ;
* Figure 6 — scaling the datasets (25/50/75/100 % document samples);
* Figure 7 — scaling computational resources: a 50 % sample counted on the
  ``processes`` executor with 1, 2, 4, ... worker processes, up to the CPUs
  this process may use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms import make_counter
from repro.algorithms.extensions import (
    ClosedNGramCounter,
    MaximalNGramCounter,
    SuffixSigmaTimeSeriesCounter,
)
from repro.config import ExecutionConfig, NGramJobConfig
from repro.corpus.stats import CollectionStatistics, compute_statistics
from repro.harness.datasets import DatasetSpec, default_datasets
from repro.harness.experiment import ExperimentRunner
from repro.harness.measurement import RunMeasurement

#: Fractions used by the dataset-scaling experiment (Figure 6).
DATASET_FRACTIONS: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)


# ---------------------------------------------------------------- Table I
def table1_dataset_characteristics(
    datasets: Optional[Sequence[DatasetSpec]] = None,
) -> Dict[str, CollectionStatistics]:
    """Dataset characteristics (# documents, term occurrences, ...)."""
    datasets = list(datasets) if datasets is not None else default_datasets()
    return {spec.name: compute_statistics(spec.build_raw()) for spec in datasets}


# --------------------------------------------------------------- Figure 2
def figure2_output_characteristics(
    datasets: Optional[Sequence[DatasetSpec]] = None,
    min_frequency: int = 5,
    execution: Optional[ExecutionConfig] = None,
) -> Dict[str, Dict[Tuple[int, int], int]]:
    """Number of n-grams per (length, collection-frequency) bucket.

    Computed with SUFFIX-σ at τ=``min_frequency`` and σ=∞, exactly the
    setting of Figure 2.
    """
    datasets = list(datasets) if datasets is not None else default_datasets()
    histograms: Dict[str, Dict[Tuple[int, int], int]] = {}
    for spec in datasets:
        config = NGramJobConfig(min_frequency=min_frequency, max_length=None)
        counter = make_counter("SUFFIX-SIGMA", config, execution=execution)
        result = counter.run(spec.build())
        histograms[spec.name] = result.statistics.bucket_histogram()
    return histograms


# --------------------------------------------------------------- Figure 3
@dataclass
class UseCaseResult:
    """Measurements for the two use cases of Figure 3."""

    language_model: Dict[str, List[RunMeasurement]] = field(default_factory=dict)
    analytics: Dict[str, List[RunMeasurement]] = field(default_factory=dict)


def figure3_use_cases(
    datasets: Optional[Sequence[DatasetSpec]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> UseCaseResult:
    """Language-model (σ=5) and text-analytics (σ=100) use cases.

    NAIVE is skipped for the analytics use case on the web-like dataset,
    matching the paper ("the method did not complete in reasonable time").
    """
    datasets = list(datasets) if datasets is not None else default_datasets()
    runner = runner if runner is not None else ExperimentRunner()
    result = UseCaseResult()
    for spec in datasets:
        collection = spec.build()
        result.language_model[spec.name] = runner.compare_methods(
            collection, spec.name, spec.language_model_tau, 5
        )
        skip = ("NAIVE",) if spec.generator == "web" else ()
        result.analytics[spec.name] = runner.compare_methods(
            collection, spec.name, spec.analytics_tau, 100, skip=skip
        )
    return result


# --------------------------------------------------------------- Figure 4
def figure4_vary_tau(
    datasets: Optional[Sequence[DatasetSpec]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, Dict[object, List[RunMeasurement]]]:
    """Sweep the minimum collection frequency τ at σ=5 (Figure 4)."""
    datasets = list(datasets) if datasets is not None else default_datasets()
    runner = runner if runner is not None else ExperimentRunner()
    sweeps: Dict[str, Dict[object, List[RunMeasurement]]] = {}
    for spec in datasets:
        collection = spec.build()
        sweeps[spec.name] = runner.sweep_parameter(
            collection,
            spec.name,
            parameter="tau",
            values=spec.sweep_tau,
            fixed_tau=spec.default_tau,
            fixed_sigma=5,
        )
    return sweeps


# --------------------------------------------------------------- Figure 5
def figure5_vary_sigma(
    datasets: Optional[Sequence[DatasetSpec]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, Dict[object, List[RunMeasurement]]]:
    """Sweep the maximum length σ at a per-dataset τ (Figure 5).

    As in the paper, NAIVE is skipped for σ > 5 on the web-like dataset.
    """
    datasets = list(datasets) if datasets is not None else default_datasets()
    runner = runner if runner is not None else ExperimentRunner()
    sweeps: Dict[str, Dict[object, List[RunMeasurement]]] = {}
    for spec in datasets:
        collection = spec.build()
        sweep: Dict[object, List[RunMeasurement]] = {}
        for sigma in spec.sweep_sigma:
            skip = (
                ("NAIVE",)
                if spec.generator == "web" and sigma is not None and sigma > 5
                else ()
            )
            sweep[sigma] = runner.compare_methods(
                collection, spec.name, spec.default_tau, sigma, skip=skip
            )
        sweeps[spec.name] = sweep
    return sweeps


# --------------------------------------------------------------- Figure 6
def figure6_scale_datasets(
    datasets: Optional[Sequence[DatasetSpec]] = None,
    runner: Optional[ExperimentRunner] = None,
    fractions: Sequence[float] = DATASET_FRACTIONS,
) -> Dict[str, Dict[object, List[RunMeasurement]]]:
    """Wallclock versus the fraction of documents processed (Figure 6)."""
    datasets = list(datasets) if datasets is not None else default_datasets()
    runner = runner if runner is not None else ExperimentRunner()
    sweeps: Dict[str, Dict[object, List[RunMeasurement]]] = {}
    for spec in datasets:
        sweep: Dict[object, List[RunMeasurement]] = {}
        for fraction in fractions:
            collection = spec.build(fraction=fraction)
            percent = int(fraction * 100)
            sweep[percent] = [
                replace(measurement, fraction_pct=percent)
                for measurement in runner.compare_methods(
                    collection, spec.name, spec.default_tau, 5
                )
            ]
        sweeps[spec.name] = sweep
    return sweeps


# --------------------------------------------------------------- Figure 7
def available_worker_counts() -> Tuple[int, ...]:
    """Powers of two up to the CPUs this process may run on: 1, 2, 4, ..."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return tuple(2**exponent for exponent in range(cpus.bit_length()))


def figure7_scale_slots(
    datasets: Optional[Sequence[DatasetSpec]] = None,
    worker_counts: Optional[Sequence[int]] = None,
    fraction: float = 0.5,
    execution: Optional[ExecutionConfig] = None,
    track_memory: bool = False,
) -> Dict[str, Dict[object, List[RunMeasurement]]]:
    """Measured wallclock versus the number of worker processes (Figure 7).

    The paper varies the map/reduce slots of its cluster; here every method
    runs on a 50 % sample once per worker count (default
    :func:`available_worker_counts`) on the ``processes`` executor.  Map and
    reduce task counts equal the largest worker count, so every run executes
    the same tasks and only their parallelism changes: records, bytes, jobs
    and n-grams are identical across worker counts.  ``execution`` supplies
    the spill budget, materialisation and codec; its runner and worker count
    are replaced.
    """
    datasets = list(datasets) if datasets is not None else default_datasets()
    if worker_counts is None:
        worker_counts = available_worker_counts()
    tasks = max(worker_counts)
    base = execution if execution is not None else ExecutionConfig()
    sweeps: Dict[str, Dict[object, List[RunMeasurement]]] = {}
    for spec in datasets:
        collection = spec.build(fraction=fraction)
        sweep: Dict[object, List[RunMeasurement]] = {}
        for workers in worker_counts:
            runner = ExperimentRunner(
                num_map_tasks=tasks,
                num_reducers=tasks,
                execution=replace(base, runner="processes", max_workers=workers),
                track_memory=track_memory,
            )
            sweep[workers] = [
                replace(measurement, workers=workers)
                for measurement in runner.compare_methods(
                    collection, spec.name, spec.default_tau, 5
                )
            ]
        sweeps[spec.name] = sweep
    return sweeps


# ------------------------------------------------------------- Extensions
@dataclass
class ExtensionsResult:
    """Result sizes of the maximality/closedness extension plus a time series sample."""

    all_ngrams: Dict[str, int] = field(default_factory=dict)
    closed_ngrams: Dict[str, int] = field(default_factory=dict)
    maximal_ngrams: Dict[str, int] = field(default_factory=dict)
    sample_time_series: Dict[str, Dict[Tuple, Dict[int, int]]] = field(default_factory=dict)


def extensions_overview(
    datasets: Optional[Sequence[DatasetSpec]] = None,
    min_frequency: Optional[int] = None,
    max_length: Optional[int] = 5,
    time_series_samples: int = 3,
) -> ExtensionsResult:
    """Compare |all| vs |closed| vs |maximal| and sample n-gram time series."""
    datasets = list(datasets) if datasets is not None else default_datasets()
    result = ExtensionsResult()
    for spec in datasets:
        collection = spec.build()
        tau = min_frequency if min_frequency is not None else spec.default_tau
        config = NGramJobConfig(min_frequency=tau, max_length=max_length)

        all_result = make_counter("SUFFIX-SIGMA", config).run(collection)
        closed_result = ClosedNGramCounter(config).run(collection)
        maximal_result = MaximalNGramCounter(config).run(collection)
        result.all_ngrams[spec.name] = len(all_result.statistics)
        result.closed_ngrams[spec.name] = len(closed_result.statistics)
        result.maximal_ngrams[spec.name] = len(maximal_result.statistics)

        timeseries_counter = SuffixSigmaTimeSeriesCounter(config)
        timeseries_counter.run(collection)
        top = all_result.statistics.top(time_series_samples, length=2)
        result.sample_time_series[spec.name] = {
            ngram: timeseries_counter.time_series.series(ngram).as_dict()
            for ngram, _ in top
        }
    return result


# -------------------------------------------------------------- Ablations
def ablation_implementation_choices(
    dataset: Optional[DatasetSpec] = None,
    min_frequency: Optional[int] = None,
    max_length: Optional[int] = 5,
    execution: Optional[ExecutionConfig] = None,
    track_memory: bool = False,
) -> List[RunMeasurement]:
    """Effect of the Section V implementation techniques.

    Compares, on the NYT-like dataset: NAIVE with and without the combiner,
    NAIVE and SUFFIX-σ with and without document splitting, and APRIORI-SCAN
    with the spilling key-value-store dictionary.  ``execution`` selects the
    backend every variant runs on; ``track_memory`` records each run's peak.
    """
    spec = dataset if dataset is not None else default_datasets()[0]
    tau = min_frequency if min_frequency is not None else spec.default_tau
    collection = spec.build()
    variants = [
        ("NAIVE", {"use_combiner": True, "split_documents": False}, "NAIVE+combiner"),
        ("NAIVE", {"use_combiner": False, "split_documents": False}, "NAIVE-no-combiner"),
        ("NAIVE", {"use_combiner": True, "split_documents": True}, "NAIVE+split"),
        ("SUFFIX-SIGMA", {"split_documents": False}, "SUFFIX-SIGMA"),
        ("SUFFIX-SIGMA", {"split_documents": True}, "SUFFIX-SIGMA+split"),
        ("APRIORI-SCAN", {"split_documents": False}, "APRIORI-SCAN"),
        ("APRIORI-SCAN", {"split_documents": True}, "APRIORI-SCAN+split"),
    ]
    measurements: List[RunMeasurement] = []
    for method, overrides, label in variants:
        runner = ExperimentRunner(execution=execution, track_memory=track_memory, **overrides)
        measurement, _ = runner.run_once(method, collection, spec.name, tau, max_length)
        measurements.append(replace(measurement, algorithm=label))
    return measurements

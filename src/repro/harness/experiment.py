"""Running algorithms and sweeping parameters.

:class:`ExperimentRunner` executes one algorithm under one configuration on
one (already encoded) collection and converts the outcome into a
:class:`~repro.harness.measurement.RunMeasurement`; its sweep helpers iterate
methods × parameter values the way the paper's figures do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms import ALGORITHMS, make_counter
from repro.algorithms.base import CountingResult
from repro.config import ExecutionConfig, NGramJobConfig
from repro.exceptions import ExperimentError
from repro.harness.measurement import RunMeasurement

#: The order in which the paper lists the methods in its figures.
DEFAULT_METHODS: Tuple[str, ...] = (
    "NAIVE",
    "APRIORI-SCAN",
    "APRIORI-INDEX",
    "SUFFIX-SIGMA",
)


class ExperimentRunner:
    """Runs algorithms and records paper-style measurements."""

    def __init__(
        self,
        num_reducers: int = 4,
        num_map_tasks: int = 8,
        use_combiner: bool = True,
        split_documents: bool = False,
        apriori_index_k: int = 4,
        execution: Optional[ExecutionConfig] = None,
        track_memory: bool = False,
    ) -> None:
        """``execution`` selects the MapReduce backend (runner, worker count,
        shuffle spill budget, dataset materialisation) every measured run
        executes on; ``None`` is the sequential in-memory default.  With
        ``track_memory`` every run also records its peak of Python-level
        allocations on the measurement."""
        self.num_reducers = num_reducers
        self.num_map_tasks = num_map_tasks
        self.use_combiner = use_combiner
        self.split_documents = split_documents
        self.apriori_index_k = apriori_index_k
        self.execution = execution
        self.track_memory = track_memory

    def run_once(
        self,
        algorithm: str,
        collection,
        dataset_name: str,
        min_frequency: int,
        max_length: Optional[int],
    ) -> Tuple[RunMeasurement, CountingResult]:
        """Run ``algorithm`` once, returning the measurement and the result."""
        if algorithm not in ALGORITHMS:
            raise ExperimentError(f"unknown algorithm {algorithm!r}")
        config = NGramJobConfig(
            min_frequency=min_frequency,
            max_length=max_length,
            num_reducers=self.num_reducers,
            use_combiner=self.use_combiner,
            split_documents=self.split_documents,
            apriori_index_k=self.apriori_index_k,
        )
        counter = make_counter(algorithm, config, execution=self.execution)
        counter.num_map_tasks = self.num_map_tasks
        result = counter.run(collection, track_memory=self.track_memory)
        measurement = RunMeasurement(
            algorithm=algorithm,
            dataset=dataset_name,
            min_frequency=min_frequency,
            max_length=max_length,
            wallclock_seconds=result.elapsed_seconds,
            map_output_records=result.map_output_records,
            map_output_bytes=result.map_output_bytes,
            num_jobs=result.num_jobs,
            num_ngrams=len(result.statistics),
            peak_memory_bytes=result.peak_memory_bytes,
        )
        return measurement, result

    def compare_methods(
        self,
        collection,
        dataset_name: str,
        min_frequency: int,
        max_length: Optional[int],
        methods: Sequence[str] = DEFAULT_METHODS,
        skip: Iterable[str] = (),
    ) -> List[RunMeasurement]:
        """Run several methods with identical parameters (one figure bar group)."""
        skip = set(skip)
        measurements = []
        for method in methods:
            if method in skip:
                continue
            measurement, _ = self.run_once(
                method, collection, dataset_name, min_frequency, max_length
            )
            measurements.append(measurement)
        return measurements

    def sweep_parameter(
        self,
        collection,
        dataset_name: str,
        parameter: str,
        values: Sequence,
        fixed_tau: int,
        fixed_sigma: Optional[int],
        methods: Sequence[str] = DEFAULT_METHODS,
        skip: Iterable[str] = (),
    ) -> Dict[object, List[RunMeasurement]]:
        """Sweep one of τ/σ over ``values`` for every method.

        ``parameter`` must be ``"tau"`` or ``"sigma"``; the other parameter
        stays at its ``fixed_*`` value.
        """
        if parameter not in ("tau", "sigma"):
            raise ExperimentError("parameter must be 'tau' or 'sigma'")
        results: Dict[object, List[RunMeasurement]] = {}
        for value in values:
            tau = value if parameter == "tau" else fixed_tau
            sigma = value if parameter == "sigma" else fixed_sigma
            results[value] = self.compare_methods(
                collection, dataset_name, tau, sigma, methods=methods, skip=skip
            )
        return results

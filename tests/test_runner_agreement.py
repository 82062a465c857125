"""Cross-backend agreement: the local and process runners are equivalent.

The acceptance bar for an execution backend is byte-identical results: same
final statistics, same per-job output and partition output, and identical
counter totals, for every algorithm — on a seeded synthetic corpus large
enough to exercise multiple map tasks, reducers and (for the APRIORI
methods) multi-job pipelines.
"""

import pytest

from repro.algorithms import make_counter
from repro.config import ExecutionConfig, NGramJobConfig
from repro.mapreduce.counters import SHUFFLE_SPILLS, SPILLED_RECORDS

ALGORITHMS = ("NAIVE", "APRIORI-SCAN", "APRIORI-INDEX", "SUFFIX-SIGMA")

#: Execution configs under test; ``local`` is the sequential reference.
#: All runs retain every job's output (the default policy releases
#: intermediates) so multi-job pipelines can be compared job by job.
BACKENDS = {
    "local": ExecutionConfig(runner="local", retention="all"),
    "processes": ExecutionConfig(runner="processes", max_workers=2, retention="all"),
}


def _run(algorithm, execution, collection):
    config = NGramJobConfig(min_frequency=3, max_length=4)
    counter = make_counter(algorithm, config, execution=execution)
    return counter.run(collection)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_backends_agree(algorithm, small_newswire):
    reference = _run(algorithm, BACKENDS["local"], small_newswire)
    assert len(reference.statistics) > 0

    for name, execution in BACKENDS.items():
        if name == "local":
            continue
        result = _run(algorithm, execution, small_newswire)
        assert result.statistics.as_dict() == reference.statistics.as_dict(), name
        assert (
            result.pipeline.counters.as_dict() == reference.pipeline.counters.as_dict()
        ), name
        assert result.pipeline.num_jobs == reference.pipeline.num_jobs, name
        for job_result, reference_job in zip(
            result.pipeline.job_results, reference.pipeline.job_results
        ):
            assert job_result.job_name == reference_job.job_name
            assert job_result.output == reference_job.output, name
            assert job_result.partition_output == reference_job.partition_output, name


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_process_backend_with_spilling_matches_reference(algorithm, small_newswire):
    """A spill budget far below the shuffle volume changes nothing but counters."""
    reference = _run(algorithm, BACKENDS["local"], small_newswire)
    execution = ExecutionConfig(
        runner="processes", max_workers=2, spill_threshold_bytes=512, retention="all"
    )
    result = _run(algorithm, execution, small_newswire)
    assert result.statistics.as_dict() == reference.statistics.as_dict()
    for job_result, reference_job in zip(
        result.pipeline.job_results, reference.pipeline.job_results
    ):
        assert job_result.output == reference_job.output
        assert job_result.partition_output == reference_job.partition_output
    counters = result.pipeline.counters
    assert counters.get(SHUFFLE_SPILLS) >= 2
    assert counters.get(SPILLED_RECORDS) > 0
    assert counters.map_output_records == reference.pipeline.counters.map_output_records
    assert counters.map_output_bytes == reference.pipeline.counters.map_output_bytes

"""Tests for multi-job pipelines."""

import pytest

from repro.mapreduce.counters import MAP_OUTPUT_RECORDS
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.metrics import JobMetrics, TaskMetrics
from repro.mapreduce.pipeline import JobPipeline, PipelineResult


class _TokenMapper(Mapper):
    def map(self, key, value, context):
        for token in value:
            context.emit(token, 1)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


class _ThresholdReducer(Reducer):
    def __init__(self, threshold):
        self.threshold = threshold

    def reduce(self, key, values, context):
        total = sum(values)
        if total >= self.threshold:
            context.emit(key, total)


def _count_job(name="count") -> JobSpec:
    return JobSpec(name=name, mapper_factory=_TokenMapper, reducer_factory=_SumReducer)


INPUT = [(0, ("a", "b", "a")), (1, ("b", "c", "a"))]


class TestJobPipeline:
    def test_single_job(self):
        pipeline = JobPipeline()
        result = pipeline.run_job(_count_job(), INPUT)
        assert result.output_as_dict() == {"a": 3, "b": 2, "c": 1}
        assert pipeline.num_jobs == 1

    def test_chained_jobs_and_counter_aggregation(self):
        pipeline = JobPipeline()
        first = pipeline.run_job(_count_job("first"), INPUT)

        class _Identity(Mapper):
            def map(self, key, value, context):
                context.emit(key, value)

        second_job = JobSpec(
            name="filter",
            mapper_factory=_Identity,
            reducer_factory=lambda: _ThresholdReducer(2),
        )
        second = pipeline.run_job(second_job, first.output)
        assert second.output_as_dict() == {"a": 3, "b": 2}
        assert pipeline.num_jobs == 2
        total_records = pipeline.counters.get(MAP_OUTPUT_RECORDS)
        assert total_records == first.counters.get(MAP_OUTPUT_RECORDS) + second.counters.get(
            MAP_OUTPUT_RECORDS
        )

    def test_cache_shared_across_jobs(self):
        pipeline = JobPipeline()
        pipeline.cache.publish("threshold", 2)

        class _CacheReducer(Reducer):
            def setup(self, context):
                self.threshold = context.cache.get("threshold")

            def reduce(self, key, values, context):
                total = sum(values)
                if total >= self.threshold:
                    context.emit(key, total)

        job = JobSpec(name="cached", mapper_factory=_TokenMapper, reducer_factory=_CacheReducer)
        result = pipeline.run_job(job, INPUT)
        assert result.output_as_dict() == {"a": 3, "b": 2}

    def test_pipeline_result_properties(self):
        pipeline = JobPipeline()
        pipeline.run_job(_count_job("one"), INPUT)
        pipeline.run_job(_count_job("two"), INPUT)
        result = pipeline.result
        assert isinstance(result, PipelineResult)
        assert result.num_jobs == 2
        assert len(result.job_metrics) == 2
        assert result.elapsed_seconds >= 0
        assert result.final_output  # output of the last job

    def test_empty_pipeline(self):
        result = PipelineResult()
        assert result.num_jobs == 0
        assert result.final_output == []
        assert result.counters.map_output_records == 0


class TestTaskMetrics:
    def test_invalid_task_type(self):
        with pytest.raises(ValueError):
            TaskMetrics(task_type="shuffle", task_index=0, input_records=0, output_records=0, output_bytes=0)

    def test_job_metrics_aggregates(self):
        metrics = JobMetrics(job_name="test")
        for index in range(3):
            metrics.map_tasks.append(
                TaskMetrics(
                    task_type="map",
                    task_index=index,
                    input_records=10,
                    output_records=10,
                    output_bytes=100,
                )
            )
        for index in range(2):
            metrics.reduce_tasks.append(
                TaskMetrics(
                    task_type="reduce",
                    task_index=index,
                    input_records=10,
                    output_records=1,
                    output_bytes=10,
                )
            )
        assert metrics.num_map_tasks == 3
        assert metrics.num_reduce_tasks == 2
        assert metrics.map_output_records == 30
        assert metrics.reduce_output_records == 2


class TestJobMetricsPublication:
    def test_completed_jobs_land_in_metrics_registry(self):
        from repro.mapreduce.metrics import publish_job_metrics
        from repro.util.metrics import MetricsRegistry

        pipeline = JobPipeline()
        result = pipeline.run_job(_count_job("observed"), INPUT)

        registry = MetricsRegistry()
        publish_job_metrics(result, registry)
        jobs = registry.get("mapreduce_jobs_total")
        assert jobs.value(job="observed") == 1
        counters = registry.get("mapreduce_counters_total")
        assert counters.value(
            group="task", counter=MAP_OUTPUT_RECORDS
        ) == result.counters.get(MAP_OUTPUT_RECORDS)
        assert registry.get("mapreduce_job_seconds").count() == 1

    def test_pipeline_publishes_to_default_registry(self):
        from repro.util.metrics import default_registry

        jobs = default_registry().counter(
            "mapreduce_jobs_total", "MapReduce jobs completed, by job name",
            labels=("job",),
        )
        before = jobs.value(job="auto-published")
        JobPipeline().run_job(_count_job("auto-published"), INPUT)
        assert jobs.value(job="auto-published") == before + 1

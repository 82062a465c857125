"""Smoke tests for the per-figure experiment drivers (tiny datasets)."""

import os
from dataclasses import replace

import pytest

from repro.config import ExecutionConfig
from repro.harness import figures
from repro.harness.datasets import clueweb_like, nytimes_like
from repro.harness.experiment import ExperimentRunner


@pytest.fixture(scope="module")
def tiny_datasets():
    return [nytimes_like(num_documents=15, seed=2), clueweb_like(num_documents=15, seed=3)]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(num_map_tasks=4, num_reducers=2)


class TestFigureDrivers:
    def test_table1(self, tiny_datasets):
        statistics = figures.table1_dataset_characteristics(tiny_datasets)
        assert set(statistics) == {"NYT-like", "CW-like"}
        assert statistics["NYT-like"].num_documents == 15

    def test_figure2(self, tiny_datasets):
        histograms = figures.figure2_output_characteristics(tiny_datasets, min_frequency=3)
        assert set(histograms) == {"NYT-like", "CW-like"}
        assert all(histogram for histogram in histograms.values())

    def test_figure3(self, tiny_datasets, runner):
        result = figures.figure3_use_cases(tiny_datasets, runner)
        assert set(result.language_model) == {"NYT-like", "CW-like"}
        assert {m.algorithm for m in result.analytics["CW-like"]} == {
            "APRIORI-SCAN",
            "APRIORI-INDEX",
            "SUFFIX-SIGMA",
        }

    def test_figure4(self, tiny_datasets, runner):
        sweeps = figures.figure4_vary_tau(tiny_datasets, runner)
        nyt_sweep = sweeps["NYT-like"]
        assert set(nyt_sweep) == set(nytimes_like().sweep_tau)
        for measurements in nyt_sweep.values():
            assert len(measurements) == 4

    def test_figure5(self, tiny_datasets, runner):
        sweeps = figures.figure5_vary_sigma(tiny_datasets, runner)
        cw_sweep = sweeps["CW-like"]
        for sigma, measurements in cw_sweep.items():
            algorithms = {m.algorithm for m in measurements}
            if sigma is not None and sigma > 5:
                assert "NAIVE" not in algorithms

    def test_figure6(self, tiny_datasets, runner):
        sweeps = figures.figure6_scale_datasets(tiny_datasets, runner, fractions=(0.5, 1.0))
        assert set(sweeps["NYT-like"]) == {50, 100}
        for percent, measurements in sweeps["CW-like"].items():
            assert {m.fraction_pct for m in measurements} == {percent}

    def test_figure7(self, tiny_datasets, monkeypatch):
        executions = []

        class RecordingRunner(ExperimentRunner):
            def __init__(self, **options):
                super().__init__(**options)
                executions.append(self.execution)

        monkeypatch.setattr(figures, "ExperimentRunner", RecordingRunner)
        execution = ExecutionConfig(
            spill_threshold_records=50, materialize="disk", shard_codec="gzip"
        )
        sweeps = figures.figure7_scale_slots(
            tiny_datasets, worker_counts=(1, 2), execution=execution
        )
        assert [(e.runner, e.max_workers) for e in executions] == [
            ("processes", 1),
            ("processes", 2),
        ] * 2
        assert {replace(e, runner="local", max_workers=None) for e in executions} == {execution}
        for sweep in sweeps.values():
            assert set(sweep) == {1, 2}
            for workers, measurements in sweep.items():
                assert len(measurements) == 4
                assert {m.workers for m in measurements} == {workers}

            def counted(workers):
                return {
                    m.algorithm: (m.map_output_records, m.map_output_bytes, m.num_jobs, m.num_ngrams)
                    for m in sweep[workers]
                }

            assert counted(1) == counted(2)

    def test_available_worker_counts_are_powers_of_two(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        assert figures.available_worker_counts() == (1, 2, 4)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert figures.available_worker_counts() == (1, 2)

    def test_extensions_overview(self, tiny_datasets):
        result = figures.extensions_overview(tiny_datasets, min_frequency=3, max_length=4)
        for name in ("NYT-like", "CW-like"):
            assert result.maximal_ngrams[name] <= result.closed_ngrams[name]
            assert result.closed_ngrams[name] <= result.all_ngrams[name]

    def test_ablations(self, tiny_datasets):
        measurements = figures.ablation_implementation_choices(
            tiny_datasets[0], min_frequency=3, max_length=3
        )
        labels = {m.algorithm for m in measurements}
        assert "NAIVE+combiner" in labels
        assert "SUFFIX-SIGMA+split" in labels

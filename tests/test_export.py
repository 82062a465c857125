"""Tests for CSV/JSON experiment exports."""

import csv
import json

import pytest

from repro.harness.export import (
    CSV_COLUMNS,
    measurements_to_rows,
    read_measurements_json,
    write_measurements_csv,
    write_measurements_json,
)
from repro.harness.measurement import RunMeasurement


def _measurement(algorithm="SUFFIX-SIGMA", tau=5, records=100, **swept):
    return RunMeasurement(
        algorithm=algorithm,
        dataset="NYT-like",
        min_frequency=tau,
        max_length=5,
        wallclock_seconds=0.5,
        map_output_records=records,
        map_output_bytes=1000,
        num_jobs=1,
        num_ngrams=10,
        **swept,
    )


class TestRows:
    def test_measurements_to_rows(self):
        rows = measurements_to_rows([_measurement(), _measurement(algorithm="NAIVE")])
        assert len(rows) == 2
        assert rows[0]["algorithm"] == "SUFFIX-SIGMA"
        assert set(CSV_COLUMNS) <= set(rows[0])

    def test_rows_carry_the_swept_value(self):
        rows = measurements_to_rows([_measurement(fraction_pct=50), _measurement(workers=2)])
        assert [row["fraction_pct"] for row in rows] == [50, None]
        assert [row["workers"] for row in rows] == [None, 2]


class TestCSV:
    def test_write_measurements_csv(self, tmp_path):
        path = str(tmp_path / "out" / "measurements.csv")
        write_measurements_csv([_measurement(), _measurement(algorithm="NAIVE")], path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["algorithm"] == "SUFFIX-SIGMA"
        assert rows[0]["records"] == "100"

    def test_csv_carries_the_swept_value(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        write_measurements_csv([_measurement(workers=1), _measurement(workers=2)], path)
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert {"tau", "sigma", "fraction_pct", "workers"} <= set(reader.fieldnames)
        assert [row["workers"] for row in rows] == ["1", "2"]
        assert [row["fraction_pct"] for row in rows] == ["", ""]


class TestJSON:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "measurements.json")
        write_measurements_json([_measurement(records=123, fraction_pct=25)], path)
        rows = read_measurements_json(path)
        assert rows[0]["records"] == 123
        assert rows[0]["fraction_pct"] == 25
        assert rows[0]["dataset"] == "NYT-like"

    def test_read_rejects_non_array(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"not": "a list"}, handle)
        with pytest.raises(ValueError):
            read_measurements_json(path)

    def test_json_file_ends_with_newline(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_measurements_json([_measurement()], path)
        with open(path, "rb") as handle:
            assert handle.read().endswith(b"\n")

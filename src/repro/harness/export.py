"""Exporting experiment results to CSV and JSON.

The benchmark harness prints paper-style tables; for downstream analysis
(plotting, regression tracking across commits) the same data can be exported
as machine-readable files, one row per measurement.  A sweep's rows carry
their x-axis value in the measurement itself (``tau``, ``sigma``,
``fraction_pct`` or ``workers``), so one writer serves every figure.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, Iterable, List, Sequence

from repro.harness.measurement import RunMeasurement

#: Column order used for CSV exports and the report tables; the swept-value
#: and peak-memory columns are empty unless the run recorded them.
CSV_COLUMNS: Sequence[str] = (
    "dataset",
    "algorithm",
    "tau",
    "sigma",
    "fraction_pct",
    "workers",
    "wallclock_s",
    "records",
    "bytes",
    "jobs",
    "ngrams",
    "peak_mem_bytes",
)


def measurements_to_rows(measurements: Iterable[RunMeasurement]) -> List[Dict[str, object]]:
    """Flatten measurements into plain dictionaries (stable column set)."""
    return [measurement.as_row() for measurement in measurements]


def write_measurements_csv(
    measurements: Iterable[RunMeasurement], path: str, extra_columns: Sequence[str] = ()
) -> None:
    """Write measurements to ``path`` as CSV."""
    rows = measurements_to_rows(measurements)
    columns = list(CSV_COLUMNS) + [column for column in extra_columns if column not in CSV_COLUMNS]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_measurements_json(measurements: Iterable[RunMeasurement], path: str) -> None:
    """Write measurements to ``path`` as a JSON array."""
    rows = measurements_to_rows(measurements)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_measurements_json(path: str) -> List[Dict[str, object]]:
    """Read back a JSON export (plain dictionaries, not RunMeasurement objects)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON array in {path!r}")
    return data

"""Plain-text report formatting in the spirit of the paper's tables/figures.

The harness prints fixed-width tables (one row per measurement or one row
per method with one column per swept parameter value) so the benchmark
output can be compared side-by-side with the paper's plots.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.harness.export import CSV_COLUMNS
from repro.harness.measurement import RunMeasurement


def format_table(
    rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None
) -> str:
    """Format dictionaries as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {column: len(str(column)) for column in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(str(row.get(column, ""))))
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def format_measurements(measurements: Iterable[RunMeasurement]) -> str:
    """One row per measurement, with the paper's three measures."""
    rows = [measurement.as_row() for measurement in measurements]
    # The swept values and the peak memory are shown only when recorded.
    optional = ("fraction_pct", "workers", "peak_mem_bytes")
    columns = [
        column
        for column in CSV_COLUMNS
        if column not in optional or any(row[column] is not None for row in rows)
    ]
    return format_table(rows, columns)


def format_sweep(
    sweep: Mapping[object, List[RunMeasurement]],
    metric: str = "wallclock_s",
    parameter_label: str = "value",
) -> str:
    """One row per method, one column per swept parameter value.

    This mirrors the paper's line plots (Figures 4–7): each line (method) is
    a row; the x-axis values are the columns; cells hold the chosen metric.
    """
    values = list(sweep.keys())
    methods: List[str] = []
    for measurements in sweep.values():
        for measurement in measurements:
            if measurement.algorithm not in methods:
                methods.append(measurement.algorithm)
    rows = []
    for method in methods:
        row: Dict[str, object] = {parameter_label: method}
        for value in values:
            cell = ""
            for measurement in sweep[value]:
                if measurement.algorithm == method:
                    cell = measurement.as_row()[metric]
                    break
            row[str(value)] = cell
        rows.append(row)
    return format_table(rows, [parameter_label] + [str(value) for value in values])


def format_histogram(histogram: Mapping[tuple, int], base_label: str = "10") -> str:
    """Format the Figure 2 bucket histogram (length bucket × frequency bucket)."""
    if not histogram:
        return "(empty histogram)"
    length_buckets = sorted({bucket[0] for bucket in histogram})
    frequency_buckets = sorted({bucket[1] for bucket in histogram})
    rows: List[Dict[str, object]] = []
    for frequency_bucket in reversed(frequency_buckets):
        row: Dict[str, object] = {"cf bucket": f"10^{frequency_bucket}"}
        for length_bucket in length_buckets:
            row[f"len 10^{length_bucket}"] = histogram.get((length_bucket, frequency_bucket), 0)
        rows.append(row)
    return format_table(
        rows, ["cf bucket"] + [f"len 10^{bucket}" for bucket in length_buckets]
    )

"""Ablations of the Section V implementation techniques.

The paper attributes significant practical impact to (a) local aggregation
with a combiner, (b) splitting documents at infrequent terms and (c) compact
sequence encoding.  This benchmark quantifies (a) and (b) on the NYT-like
dataset by re-running NAIVE, APRIORI-SCAN and SUFFIX-σ with the techniques
toggled, reporting the usual three measures.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.harness.figures import ablation_implementation_choices
from repro.harness.report import format_measurements


def test_ablation_implementation_choices(benchmark, nyt_spec):
    measurements = run_once(benchmark, ablation_implementation_choices, nyt_spec)

    print("\n=== Ablations: combiner and document splitting (NYT-like, sigma=5) ===")
    print(format_measurements(measurements))

    by_label = {m.algorithm: m for m in measurements}

    # The combiner aggregates NAIVE's map output before it reaches the
    # shuffle (SHUFFLE_RECORDS falls; compare the measured wallclock_s
    # columns), while MAP_OUTPUT_RECORDS, counted at emit, is unchanged.
    assert (
        by_label["NAIVE+combiner"].map_output_records
        == by_label["NAIVE-no-combiner"].map_output_records
    )

    # Document splitting never increases the records any method emits.
    assert (
        by_label["NAIVE+split"].map_output_records
        <= by_label["NAIVE+combiner"].map_output_records
    )
    assert (
        by_label["SUFFIX-SIGMA+split"].map_output_records
        <= by_label["SUFFIX-SIGMA"].map_output_records
    )
    assert (
        by_label["APRIORI-SCAN+split"].map_output_records
        <= by_label["APRIORI-SCAN"].map_output_records
    )

"""Figure 6 — scaling the datasets (25 %, 50 %, 75 %, 100 % samples).

Every method runs on random document samples of increasing size with σ=5 and
the per-dataset default τ.

Shapes to reproduce from the paper: every method's cost grows with the
sample size (roughly linearly), all methods scale comparably (similar
slopes), and the relative order of the methods is preserved across sample
sizes.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.harness.figures import figure6_scale_datasets
from repro.harness.report import format_sweep


def test_figure6_scale_datasets(benchmark, datasets, runner):
    sweeps = run_once(benchmark, figure6_scale_datasets, datasets, runner)

    for name, sweep in sweeps.items():
        print(f"\n=== Figure 6 ({name}): scaling the dataset ===")
        print("\nmeasured wallclock (s):")
        print(format_sweep(sweep, metric="wallclock_s", parameter_label="method"))
        print("\n# records:")
        print(format_sweep(sweep, metric="records", parameter_label="method"))

    for name, sweep in sweeps.items():
        fractions = sorted(sweep.keys())
        smallest, largest = fractions[0], fractions[-1]
        for algorithm in ("NAIVE", "APRIORI-SCAN", "APRIORI-INDEX", "SUFFIX-SIGMA"):
            small = next(
                m for m in sweep[smallest] if m.algorithm == algorithm
            ).map_output_records
            large = next(
                m for m in sweep[largest] if m.algorithm == algorithm
            ).map_output_records
            # More documents means more records shuffled for every method.
            assert large > small, f"{name}/{algorithm}: no growth with dataset size"

        # The methods' relative order (by records) is stable across scales.
        def ordering(fraction):
            measurements = sorted(sweep[fraction], key=lambda m: m.map_output_records)
            return [m.algorithm for m in measurements]

        assert ordering(smallest)[0] == "SUFFIX-SIGMA"
        assert ordering(largest)[0] == "SUFFIX-SIGMA"

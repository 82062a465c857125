"""Figure 4 — varying the minimum collection frequency τ (σ = 5).

For both datasets and every method, sweeps τ and reports the three measures
of the paper: measured wallclock, bytes transferred between map and
reduce, and the number of records transferred and sorted.

Shapes to reproduce from the paper:
* for high τ, SUFFIX-σ performs on par with the best competitor
  (APRIORI-SCAN); for low τ it clearly outperforms every other method;
* the APRIORI methods' cost grows steeply as τ decreases (their k-th
  iteration depends on the number of frequent (k-1)-grams);
* NAIVE's cost is independent of τ;
* SUFFIX-σ transfers the fewest records at every τ, and its record count
  does not depend on τ.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.harness.figures import figure4_vary_tau
from repro.harness.report import format_sweep


def _series(sweep, algorithm, attribute):
    values = []
    for measurements in sweep.values():
        for measurement in measurements:
            if measurement.algorithm == algorithm:
                values.append(getattr(measurement, attribute))
    return values


def test_figure4_vary_tau(benchmark, datasets, runner):
    sweeps = run_once(benchmark, figure4_vary_tau, datasets, runner)

    for name, sweep in sweeps.items():
        print(f"\n=== Figure 4 ({name}): varying tau, sigma=5 ===")
        print("\nmeasured wallclock (s):")
        print(format_sweep(sweep, metric="wallclock_s", parameter_label="method"))
        print("\nbytes transferred:")
        print(format_sweep(sweep, metric="bytes", parameter_label="method"))
        print("\n# records:")
        print(format_sweep(sweep, metric="records", parameter_label="method"))

    for name, sweep in sweeps.items():
        taus = sorted(sweep.keys())
        lowest_tau, highest_tau = taus[0], taus[-1]

        # SUFFIX-SIGMA wins clearly at the lowest tau ...
        low = {m.algorithm: m for m in sweep[lowest_tau]}
        best_other = min(
            m.wallclock_seconds
            for algorithm, m in low.items()
            if algorithm != "SUFFIX-SIGMA"
        )
        assert low["SUFFIX-SIGMA"].wallclock_seconds < best_other

        # ... and is at least on par at the highest tau.
        high = {m.algorithm: m for m in sweep[highest_tau]}
        best_other_high = min(
            m.wallclock_seconds
            for algorithm, m in high.items()
            if algorithm != "SUFFIX-SIGMA"
        )
        assert high["SUFFIX-SIGMA"].wallclock_seconds <= best_other_high * 1.1

        # NAIVE's records are independent of tau; SUFFIX-SIGMA's too.
        assert len(set(_series(sweep, "NAIVE", "map_output_records"))) == 1
        assert len(set(_series(sweep, "SUFFIX-SIGMA", "map_output_records"))) == 1

        # SUFFIX-SIGMA transfers the fewest records at every tau.
        for measurements in sweep.values():
            by_algorithm = {m.algorithm: m.map_output_records for m in measurements}
            assert by_algorithm["SUFFIX-SIGMA"] == min(by_algorithm.values())

        # APRIORI-SCAN gets cheaper as tau grows (more pruning).
        scan_records = _series(sweep, "APRIORI-SCAN", "map_output_records")
        assert scan_records[0] >= scan_records[-1]

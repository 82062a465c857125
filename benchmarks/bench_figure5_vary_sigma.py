"""Figure 5 — varying the maximum length σ (per-dataset τ).

Shapes to reproduce from the paper:
* the APRIORI methods launch more jobs (and keep getting slower) as σ grows;
* NAIVE and SUFFIX-σ saturate: beyond the sentence length, raising σ adds no
  work (sentence boundaries act as barriers);
* SUFFIX-σ's *record* count is constant in σ (one record per term
  occurrence), only its byte count grows and then saturates;
* on the NYT-like dataset SUFFIX-σ wins across the board; on the web-like
  dataset NAIVE is skipped for σ > 5 (as in the paper).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.harness.figures import figure5_vary_sigma
from repro.harness.report import format_sweep


def _per_sigma(sweep, algorithm, attribute):
    result = {}
    for sigma, measurements in sweep.items():
        for measurement in measurements:
            if measurement.algorithm == algorithm:
                result[sigma] = getattr(measurement, attribute)
    return result


def test_figure5_vary_sigma(benchmark, datasets, runner):
    sweeps = run_once(benchmark, figure5_vary_sigma, datasets, runner)

    for name, sweep in sweeps.items():
        print(f"\n=== Figure 5 ({name}): varying sigma ===")
        print("\nmeasured wallclock (s):")
        print(format_sweep(sweep, metric="wallclock_s", parameter_label="method"))
        print("\nbytes transferred:")
        print(format_sweep(sweep, metric="bytes", parameter_label="method"))
        print("\n# records:")
        print(format_sweep(sweep, metric="records", parameter_label="method"))

    for name, sweep in sweeps.items():
        sigmas = sorted(sweep.keys())
        smallest, largest = sigmas[0], sigmas[-1]

        # SUFFIX-SIGMA's record count is constant in sigma.
        suffix_records = _per_sigma(sweep, "SUFFIX-SIGMA", "map_output_records")
        assert len(set(suffix_records.values())) == 1

        # The APRIORI methods need more jobs as sigma grows.
        scan_jobs = _per_sigma(sweep, "APRIORI-SCAN", "num_jobs")
        assert scan_jobs[largest] >= scan_jobs[smallest]

        # SUFFIX-SIGMA needs exactly one job at every sigma.
        suffix_jobs = _per_sigma(sweep, "SUFFIX-SIGMA", "num_jobs")
        assert set(suffix_jobs.values()) == {1}

        # At the largest sigma SUFFIX-SIGMA beats every competitor.
        largest_measurements = {m.algorithm: m for m in sweep[largest]}
        best_other = min(
            m.wallclock_seconds
            for algorithm, m in largest_measurements.items()
            if algorithm != "SUFFIX-SIGMA"
        )
        assert (
            largest_measurements["SUFFIX-SIGMA"].wallclock_seconds < best_other
        )

    # NAIVE is skipped for sigma > 5 on the web-like dataset.
    web_sweep = sweeps["CW-like"]
    for sigma, measurements in web_sweep.items():
        algorithms = {m.algorithm for m in measurements}
        if sigma is not None and sigma > 5:
            assert "NAIVE" not in algorithms
        else:
            assert "NAIVE" in algorithms

"""Figure 7 — scaling computational resources (worker processes).

The paper re-runs every method on 16, 32, 48 and 64 map/reduce slots of its
cluster.  Here every method runs on a 50 % sample once per worker count —
1, 2, 4, ... up to the CPUs this process may use — on the ``processes``
executor, with the same tasks at every count, and the wallclock is measured.

Shapes to reproduce from the paper: all methods benefit from additional
workers, the gains are diminishing (the first doubling saves at least as
much as the last), and SUFFIX-σ is the fastest method at every worker count.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.harness.figures import figure7_scale_slots
from repro.harness.report import format_sweep


def test_figure7_scale_slots(benchmark, datasets):
    sweeps = run_once(benchmark, figure7_scale_slots, datasets)

    for name, sweep in sweeps.items():
        print(f"\n=== Figure 7 ({name}): scaling worker processes ===")
        print("\nmeasured wallclock (s):")
        print(format_sweep(sweep, metric="wallclock_s", parameter_label="method"))

    for name, sweep in sweeps.items():
        worker_counts = sorted(sweep.keys())
        for algorithm in ("NAIVE", "APRIORI-SCAN", "APRIORI-INDEX", "SUFFIX-SIGMA"):
            series = []
            for workers in worker_counts:
                measurement = next(m for m in sweep[workers] if m.algorithm == algorithm)
                series.append(measurement.wallclock_seconds)
            # More workers never hurt.
            assert all(later <= earlier * 1.001 for earlier, later in zip(series, series[1:]))
            # Diminishing returns: the first doubling saves at least as much
            # (absolutely) as the last step.
            first_gain = series[0] - series[1]
            last_gain = series[-2] - series[-1]
            assert first_gain >= last_gain - 1e-9

        # The methods' relative order is independent of the worker count.
        def ordering(workers):
            measurements = sorted(sweep[workers], key=lambda m: m.wallclock_seconds)
            return [m.algorithm for m in measurements]

        assert ordering(worker_counts[0])[0] == ordering(worker_counts[-1])[0] == "SUFFIX-SIGMA"

#!/usr/bin/env python3
"""Reproduce the paper's method comparison on a laptop-sized corpus.

Runs all four methods on the NYT-like and ClueWeb-like synthetic datasets at
the language-model setting (σ=5) and sweeps the minimum collection frequency
τ, printing the three measures of the paper (wallclock, bytes transferred,
number of records) as compact tables — a miniature version of Figures 3 and
4.

Run with::

    python examples/method_comparison.py
"""

from __future__ import annotations

from repro.harness.datasets import clueweb_like, nytimes_like
from repro.harness.experiment import ExperimentRunner
from repro.harness.report import format_measurements, format_sweep


def main() -> None:
    datasets = [nytimes_like(num_documents=100), clueweb_like(num_documents=120)]
    runner = ExperimentRunner()

    print("=" * 70)
    print("Use case: language model training (sigma = 5)")
    print("=" * 70)
    for spec in datasets:
        collection = spec.build()
        measurements = runner.compare_methods(
            collection, spec.name, spec.language_model_tau, 5
        )
        print(f"\n--- {spec.name} (tau={spec.language_model_tau}) ---")
        print(format_measurements(measurements))

    print()
    print("=" * 70)
    print("Sweep of the minimum collection frequency tau (sigma = 5)")
    print("=" * 70)
    for spec in datasets:
        collection = spec.build()
        sweep = runner.sweep_parameter(
            collection,
            spec.name,
            parameter="tau",
            values=spec.sweep_tau[:4],
            fixed_tau=spec.default_tau,
            fixed_sigma=5,
        )
        print(f"\n--- {spec.name}: measured wallclock (s) per tau ---")
        print(format_sweep(sweep, metric="wallclock_s", parameter_label="method"))
        print(f"\n--- {spec.name}: records shuffled per tau ---")
        print(format_sweep(sweep, metric="records", parameter_label="method"))


if __name__ == "__main__":
    main()

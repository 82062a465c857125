"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section VII) on the scaled-down synthetic datasets.  The dataset specs are
session-scoped so the corpora are generated once per benchmark session.

Run the full harness with::

    pytest benchmarks/ --benchmark-only

Each benchmark prints the paper-style rows it produced (use ``-s`` to see
them inline).  Wallclock is measured in-process on the machine running the
benchmark, so the wallclock assertions check this implementation's method
ranking on this hardware, not a model of the paper's cluster.
"""

from __future__ import annotations

import pytest

from repro.harness.datasets import DatasetSpec, clueweb_like, nytimes_like
from repro.harness.experiment import ExperimentRunner


@pytest.fixture(scope="session")
def nyt_spec() -> DatasetSpec:
    """The NYT-like dataset used throughout the benchmarks."""
    return nytimes_like(num_documents=120)


@pytest.fixture(scope="session")
def cw_spec() -> DatasetSpec:
    """The ClueWeb-like dataset used throughout the benchmarks."""
    return clueweb_like(num_documents=150)


@pytest.fixture(scope="session")
def datasets(nyt_spec: DatasetSpec, cw_spec: DatasetSpec):
    """Both datasets, in the order the paper lists them (NYT, CW)."""
    return [nyt_spec, cw_spec]


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """The default experiment runner (combiner on, no document splitting)."""
    return ExperimentRunner()


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are macro-benchmarks (seconds each, deterministic), so a
    single round is both sufficient and what keeps the full harness fast.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

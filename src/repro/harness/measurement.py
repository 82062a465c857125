"""Measurement records for experiment runs.

Section VII.A of the paper lists the reported measures: (a) wallclock time,
(b) bytes transferred between map and reduce phases (``MAP_OUTPUT_BYTES``),
and (c) the number of key-value records transferred and sorted
(``MAP_OUTPUT_RECORDS``); for multi-job methods, (b) and (c) aggregate over
all jobs launched.  :class:`RunMeasurement` captures these three plus some
context (dataset, parameters, result size).  The wallclock is measured
in-process around the whole computation; nothing is modelled.  The scaling
experiments also record the value they sweep: the document sample in
percent (Figure 6) or the number of worker processes (Figure 7).

Beyond the paper's measures, a run can carry the tracked peak of
Python-level allocations (``peak_memory_bytes``, measured with
:class:`~repro.util.memory.PeakMemoryTracker`) — the number the
materialisation benchmarks compare between the in-memory and the sharded
on-disk dataset modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.util.memory import PeakMemoryTracker

__all__ = ["PeakMemoryTracker", "RunMeasurement"]


@dataclass(frozen=True)
class RunMeasurement:
    """One algorithm run on one dataset with one parameter setting."""

    algorithm: str
    dataset: str
    min_frequency: int
    max_length: Optional[int]
    wallclock_seconds: float
    map_output_records: int
    map_output_bytes: int
    num_jobs: int
    num_ngrams: int
    peak_memory_bytes: Optional[int] = None
    fraction_pct: Optional[int] = None
    workers: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def sigma_label(self) -> str:
        """Human-readable σ (``"inf"`` for unbounded)."""
        return "inf" if self.max_length is None else str(self.max_length)

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary used by the report formatter."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "tau": self.min_frequency,
            "sigma": self.sigma_label,
            "fraction_pct": self.fraction_pct,
            "workers": self.workers,
            "wallclock_s": round(self.wallclock_seconds, 3),
            "records": self.map_output_records,
            "bytes": self.map_output_bytes,
            "jobs": self.num_jobs,
            "ngrams": self.num_ngrams,
            "peak_mem_bytes": self.peak_memory_bytes,
            **{key: round(value, 4) for key, value in self.extra.items()},
        }

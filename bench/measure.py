"""Repetition, interleaving and summary rules shared by every timed phase.

One call of anything on this two-core sandbox varies 20-60 % from the next
(the first is slowest), so no metric is ever a single timing: each is a
median of repeated calls after a discarded warm-up, with ``gc.collect()``
before every call so that collections started by one repetition are not
billed to the next.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple


@dataclass
class Metric:
    """One named metric: the reported value and the samples behind it."""

    name: str
    unit: str
    value: float
    samples: List[float] = field(default_factory=list)

    def describe(self) -> str:
        text = f"{self.name:<46} {self.value:>16.6g} {self.unit}"
        if len(self.samples) >= 2:
            q1, _, q3 = statistics.quantiles(self.samples, n=4)
            text += f"   n={len(self.samples)} q1={q1:.6g} q3={q3:.6g}"
        elif self.samples:
            text += "   n=1"
        return text


class Metrics:
    """The metrics of one run, by name, in the order they were measured."""

    def __init__(self) -> None:
        self.by_name: Dict[str, Metric] = {}

    def median(self, name: str, unit: str, samples: Sequence[float], scale: float = 1.0) -> float:
        """Record ``name`` as the median of ``samples`` (each times ``scale``)."""
        scaled = [sample * scale for sample in samples]
        value = statistics.median(scaled)
        self.by_name[name] = Metric(name, unit, value, scaled)
        return value

    def value(self, name: str, unit: str, value: float) -> float:
        """Record ``name`` as one measured or counted value."""
        self.by_name[name] = Metric(name, unit, float(value))
        return value

    def as_json(self, names: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        return {
            name: {"value": self.by_name[name].value, "unit": self.by_name[name].unit}
            for name in names
        }


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """``(seconds, result)`` of one call, garbage collected beforehand."""
    gc.collect()
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


#: Most repetitions of one layer probe, and most calls in one slice.
MAX_REPS = 25
MAX_CALLS = 50


def repeat(fn: Callable[[], Any], budget_s: float) -> List[float]:
    """Seconds of repeated calls of ``fn`` after one discarded warm-up call.

    Repeats until ``budget_s`` of timed work is done, and at least five
    times (three when one call takes over a sixth of the budget).
    """
    warm_s, _ = timed(fn)
    min_reps = 5 if warm_s * 6 <= budget_s else 3
    samples: List[float] = []
    while len(samples) < MAX_REPS and (len(samples) < min_reps or sum(samples) < budget_s):
        samples.append(timed(fn)[0])
    return samples


def timed_slice(
    fn: Callable[[], Any], budget_s: float, before: Callable[[], Any] = lambda: None
) -> List[float]:
    """Seconds of each back-to-back call of ``fn`` that fits ``budget_s``; at least one.

    ``before`` runs ahead of every call, outside the stopwatch: it makes what
    the call consumes (a fresh directory) and removes what the last one left.
    """
    samples: List[float] = []
    while True:
        before()
        samples.append(timed(fn)[0])
        if len(samples) >= MAX_CALLS or sum(samples) + statistics.median(samples) > budget_s:
            return samples


def measure_rounds(
    phases: Sequence[Tuple[str, Callable[[float], List[float]]]],
    shares: Dict[str, float],
    seconds: float,
    target_rounds: int,
    min_rounds: int,
) -> List[Dict[str, float]]:
    """Run rounds of every phase for ``seconds``; one dict of slice medians per round.

    ``phases`` pairs a metric with the phase that samples it, in the order a
    round runs them; a metric listed k times gets k slices per round, each
    ``shares[name] / k`` of ``seconds / target_rounds``.  A discarded warm-up
    round comes first, with the shortest slices there are (every slice does
    at least one call).  Rounds stop when another would overrun ``seconds``,
    but not before ``min_rounds`` are done.
    """
    slices = {name: sum(1 for other, _ in phases if other == name) for name, _ in phases}

    def one_round(round_s: float) -> Dict[str, float]:
        samples: Dict[str, List[float]] = {name: [] for name in slices}
        for name, phase in phases:
            samples[name] += phase(round_s * shares[name] / slices[name])
        return {name: statistics.median(values) for name, values in samples.items()}

    one_round(0.0)
    rounds: List[Dict[str, float]] = []
    started = time.perf_counter()
    while True:
        rounds.append(one_round(seconds / target_rounds))
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) > seconds:
            return rounds


def latencies_ns(fn: Callable[[Any], Any], arguments: Sequence[Any]) -> Tuple[List[int], List[Any]]:
    """Per-call ``perf_counter_ns`` latencies and results of ``fn`` over ``arguments``."""
    clock = time.perf_counter_ns
    latencies: List[int] = []
    results: List[Any] = []
    gc.collect()
    for argument in arguments:
        started = clock()
        result = fn(argument)
        latencies.append(clock() - started)
        results.append(result)
    return latencies, results


def closed_loop_rate(request: Callable[[], int], seconds: float) -> float:
    """Operations per second of one caller issuing ``request`` back to back.

    ``request`` returns how many operations it completed; the next one is
    sent only when the previous one has been answered.  One request goes out
    before the clock starts: the first on an idle connection is not typical.
    """
    gc.collect()
    request()
    operations = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        operations += request()
        now = time.perf_counter()
        if now >= deadline:
            return operations / (now - started)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    index = min(len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def spin() -> float:
    """Seconds a fixed pure-Python loop takes: a drift indicator, never a divisor."""
    started = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    return time.perf_counter() - started

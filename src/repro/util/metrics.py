"""Process-wide metrics registry: counters, gauges and histograms.

Before this module, every subsystem exposed telemetry through its own
ad-hoc surface — :class:`~repro.ngramstore.service.ServerMetrics` kept raw
latency sample lists, the block cache its own ``CacheStats``, the store
reader an ``io_stats()`` dict, the HTTP client a bare
``connections_opened`` integer — and none of them could be scraped,
merged or compared.  :class:`MetricsRegistry` is the one instrument
model they all adapt onto:

* :class:`Counter` — a monotonically increasing total (requests served,
  blocks decoded, replicas quarantined);
* :class:`Gauge` — a point-in-time value, settable or backed by a
  callback read at scrape time (resident cache blocks, active
  connections);
* :class:`Histogram` — an observation distribution over **fixed
  exponential buckets**, so latency percentiles are *mergeable*: two
  histograms with the same bounds add bucket-wise, which is what makes
  cross-shard / cross-replica percentiles exact in a way capped raw
  sample lists never were.

Every metric supports labels (``counter.inc(op="get")``); a ``(name,
labels)`` pair identifies one *series*.  Metric constructors are
get-or-create: asking a registry for an existing name returns the same
metric object (type and label names must agree), so independent
components can share one process-wide registry (see
:func:`default_registry`) without coordinating construction order.

All mutation and snapshotting is thread-safe: each metric guards its
series map with one lock, increments are atomic, and
:meth:`MetricsRegistry.snapshot` copies under the locks so a scrape
during a write burst sees internally consistent series (a histogram's
bucket counts always sum to its count).

:meth:`MetricsRegistry.render_prometheus` renders the whole registry in
the Prometheus text exposition format (version 0.0.4) — what the
``GET /metrics`` endpoint of the HTTP server and the ``metrics`` op of
the socket protocol serve.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "merge_histogram_snapshots",
    "quantile_from_buckets",
    "snapshot_quantile",
]

#: Fixed exponential latency buckets (seconds): 10 µs doubling up to ~10 s.
#: Every histogram in the repo defaults to these bounds so any two latency
#: histograms — across operations, servers, shards or replicas — merge
#: bucket-wise into an exact combined distribution.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(10e-6 * 2 ** i for i in range(21))


def _label_key(label_names: Tuple[str, ...], labels: Dict[str, Any]) -> Tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"metric labels must be exactly {sorted(label_names)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _render_labels(
    label_names: Tuple[str, ...], key: Tuple[str, ...], extra: str = ""
) -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, key)
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class _Metric:
    """Shared bookkeeping of a named, labeled metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:  # noqa: A002
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def _compatible(self, kind: str, label_names: Sequence[str]) -> None:
        if self.kind != kind or self.label_names != tuple(label_names):
            raise ValueError(
                f"metric {self.name!r} is already registered as {self.kind} "
                f"with labels {list(self.label_names)}; cannot re-register as "
                f"{kind} with labels {list(label_names)}"
            )


class Counter(_Metric):
    """A monotonically increasing total, optionally labeled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def total(self) -> float:
        """Sum over every labeled series."""
        with self._lock:
            return sum(self._series.values())

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = list(self._series.items())
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in items
        ]

    def render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted(self._series.items())
        for key, value in items:
            lines.append(
                f"{self.name}{_render_labels(self.label_names, key)} "
                f"{_format_value(value)}"
            )


class Gauge(_Metric):
    """A point-in-time value: set directly, or backed by a callback.

    Callback gauges (:meth:`set_callback`) are how existing stat surfaces
    retrofit onto the registry without double bookkeeping: the gauge reads
    the live source (cache counters, ``io_stats()``) at snapshot/render
    time instead of mirroring every mutation.
    """

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            current = self._series.get(key, 0.0)
            if callable(current):
                raise ValueError(f"gauge series {self.name}{labels} is callback-backed")
            self._series[key] = current + amount

    def set_callback(self, callback: Callable[[], float], **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = callback

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            current = self._series.get(key, 0.0)
        return float(current()) if callable(current) else current

    def _evaluated(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            items = list(self._series.items())
        evaluated = []
        for key, value in items:
            if callable(value):
                try:
                    value = float(value())
                except Exception:  # a dead callback must not kill the scrape
                    continue
            evaluated.append((key, value))
        return evaluated

    def snapshot(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in self._evaluated()
        ]

    def render(self, lines: List[str]) -> None:
        for key, value in sorted(self._evaluated()):
            lines.append(
                f"{self.name}{_render_labels(self.label_names, key)} "
                f"{_format_value(value)}"
            )


class _HistogramSeries:
    """One labeled series: bucket counts plus count/sum/min/max."""

    __slots__ = ("buckets", "count", "sum", "min", "max")

    def __init__(self, num_buckets: int) -> None:
        self.buckets = [0] * num_buckets  # one per bound, plus overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram(_Metric):
    """Observation distribution over fixed (default: exponential) buckets.

    Bucket semantics follow Prometheus: an observation lands in the first
    bucket whose upper bound is ``>= value`` (rendered cumulatively with
    ``le`` labels).  :meth:`quantile` derives percentiles by linear
    interpolation inside the owning bucket, clamped to the observed
    min/max — so estimates are never below the true minimum or above the
    true maximum, and unlike a capped sample list they weight *every*
    observation ever made, not just the first N.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(later <= earlier for later, earlier in zip(bounds[1:], bounds)):
            raise ValueError("histogram buckets must be a non-empty ascending sequence")
        self.bounds = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        index = bisect_left(self.bounds, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.bounds) + 1)
            series.buckets[index] += 1
            series.count += 1
            series.sum += value
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    def _get(self, labels: Dict[str, Any]) -> Optional[_HistogramSeries]:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._series.get(key)

    def count(self, **labels: Any) -> int:
        series = self._get(labels)
        return 0 if series is None else series.count

    def sum(self, **labels: Any) -> float:
        series = self._get(labels)
        return 0.0 if series is None else series.sum

    def max(self, **labels: Any) -> float:
        series = self._get(labels)
        return 0.0 if series is None or series.count == 0 else series.max

    def quantile(self, fraction: float, **labels: Any) -> float:
        """Estimated value at ``fraction`` (0..1), clamped to observed min/max."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None or series.count == 0:
                return 0.0
            counts = list(series.buckets)
            total, lowest, highest = series.count, series.min, series.max
        return _bucket_quantile(self.bounds, counts, total, lowest, highest, fraction)

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = [
                (key, list(s.buckets), s.count, s.sum, s.min, s.max)
                for key, s in self._series.items()
            ]
        return [
            {
                "labels": dict(zip(self.label_names, key)),
                "bounds": list(self.bounds),
                "buckets": buckets,
                "count": count,
                "sum": total,
                "min": lowest if count else None,
                "max": highest if count else None,
            }
            for key, buckets, count, total, lowest, highest in items
        ]

    def render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted(
                (key, list(s.buckets), s.count, s.sum)
                for key, s in self._series.items()
            )
        for key, buckets, count, total in items:
            cumulative = 0
            for bound, bucket_count in zip(self.bounds, buckets):
                cumulative += bucket_count
                extra = f'le="{_format_value(bound)}"'
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(self.label_names, key, extra)} {cumulative}"
                )
            cumulative += buckets[-1]
            inf_label = 'le="+Inf"'
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(self.label_names, key, inf_label)} {cumulative}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(self.label_names, key)} "
                f"{_format_value(total)}"
            )
            lines.append(
                f"{self.name}_count{_render_labels(self.label_names, key)} {count}"
            )


def _bucket_quantile(
    bounds: Tuple[float, ...],
    counts: List[int],
    total: int,
    lowest: float,
    highest: float,
    fraction: float,
) -> float:
    """Interpolated quantile of bucketed counts, clamped to [lowest, highest]."""
    fraction = min(1.0, max(0.0, fraction))
    target = fraction * total
    cumulative = 0.0
    estimate = highest
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= target:
            if index >= len(bounds):  # overflow bucket: only the max is known
                estimate = highest
            else:
                upper = bounds[index]
                lower = bounds[index - 1] if index > 0 else 0.0
                within = (target - cumulative) / bucket_count
                estimate = lower + (upper - lower) * within
            break
        cumulative += bucket_count
    return min(max(estimate, lowest), highest)


def snapshot_quantile(series: Dict[str, Any], fraction: float) -> float:
    """Quantile of one histogram series snapshot, clamped to its observed min/max."""
    count = series["count"]
    if not count:
        return 0.0
    return _bucket_quantile(
        tuple(series["bounds"]),
        list(series["buckets"]),
        count,
        series["min"],
        series["max"],
        fraction,
    )


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], fraction: float
) -> float:
    """Quantile over raw bucket counts (no min/max clamp) — for merged data."""
    total = sum(counts)
    if total == 0:
        return 0.0
    highest = float(bounds[-1])
    for index in range(len(counts) - 1, -1, -1):
        if counts[index]:
            highest = float(bounds[index]) if index < len(bounds) else float("inf")
            break
    return _bucket_quantile(tuple(float(b) for b in bounds), list(counts), total, 0.0, highest, fraction)


def merge_histogram_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge same-bounds histogram series snapshots into one distribution.

    This is the payoff of fixed buckets: per-shard (or per-replica, or
    per-mix) histograms published independently add bucket-wise into an
    exact combined histogram, so global percentiles never require raw
    samples to cross the wire.
    """
    if not snapshots:
        raise ValueError("nothing to merge")
    bounds = list(snapshots[0]["bounds"])
    merged_buckets = [0] * (len(bounds) + 1)
    count, total = 0, 0.0
    lowest, highest = math.inf, -math.inf
    for snapshot in snapshots:
        if list(snapshot["bounds"]) != bounds:
            raise ValueError("histogram snapshots have different bucket bounds")
        for index, bucket_count in enumerate(snapshot["buckets"]):
            merged_buckets[index] += bucket_count
        count += snapshot["count"]
        total += snapshot["sum"]
        if snapshot.get("min") is not None:
            lowest = min(lowest, snapshot["min"])
        if snapshot.get("max") is not None:
            highest = max(highest, snapshot["max"])
    return {
        "labels": {},
        "bounds": bounds,
        "buckets": merged_buckets,
        "count": count,
        "sum": total,
        "min": None if count == 0 else lowest,
        "max": None if count == 0 else highest,
    }


class MetricsRegistry:
    """A named collection of metrics; see the module docstring.

    Constructors are get-or-create and thread-safe: the first call for a
    name registers the metric, later calls return the same object after
    checking that the type and label names agree.
    """

    def __init__(self) -> None:
        self._metrics: "Dict[str, _Metric]" = {}
        self._lock = threading.Lock()

    def _register(self, name: str, kind: str, factory: Callable[[], _Metric]) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()  # noqa: A002
    ) -> Counter:
        metric = self._register(name, "counter", lambda: Counter(name, help, labels))
        metric._compatible("counter", labels)
        return metric  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()  # noqa: A002
    ) -> Gauge:
        metric = self._register(name, "gauge", lambda: Gauge(name, help, labels))
        metric._compatible("gauge", labels)
        return metric  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._register(
            name, "histogram", lambda: Histogram(name, help, labels, buckets)
        )
        metric._compatible("histogram", labels)
        return metric  # type: ignore[return-value]

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """Every metric's series as plain JSON-ready data, consistently copied."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {
            name: {"type": metric.kind, "help": metric.help, "series": metric.snapshot()}
            for name, metric in sorted(metrics)
        }

    def render_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            metric.render(lines)
        return "\n".join(lines) + "\n"


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry components share when none is passed in."""
    return _DEFAULT_REGISTRY

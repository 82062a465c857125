"""The transport-independent serving core: one store, one ``execute``.

:class:`StoreService` owns everything a serving process has exactly once,
whatever bytes it speaks: the served store (opened here from a directory —
plain, LSM, or one :class:`~repro.ngramstore.router.ShardView` slice — or
handed in by the caller), the optional comparison store, the process-wide
:class:`~repro.ngramstore.table.BlockCache` they share, the
:class:`~repro.ngramstore.api.QueryEngine`, the :class:`ServerMetrics`
and the slow-query log.  :meth:`StoreService.execute` is the single path
from a decoded request object to a response object — tracing, per-request
I/O deltas, the ``server_stats``/``metrics`` operations and the error
envelope included — so the socket server
(:mod:`repro.ngramstore.server`) and the HTTP adapter
(:mod:`repro.ngramstore.http`) are framing only and answer identically by
construction.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.config import ServerConfig
from repro.exceptions import StoreError
from repro.ngramstore.api import OPS, QueryEngine, ensure_comparable_vocabulary
from repro.ngramstore.lsm import is_lsm_dir, open_store_auto
from repro.ngramstore.reader import NGramStore
from repro.ngramstore.router import ShardView
from repro.ngramstore.table import BlockCache
from repro.util.metrics import MetricsRegistry, snapshot_quantile
from repro.util.timer import Stopwatch
from repro.util.tracing import SlowQueryLog, TraceContext

#: Largest accepted request (a JSON line, a binary frame or an HTTP body);
#: anything longer is a protocol error.
MAX_REQUEST_BYTES = 1 << 20

#: ``io_stats()`` fields exposed as ``ngramstore_io_events`` gauges.
_IO_EVENTS = (
    "blocks_decoded",
    "bloom_rejections",
    "blocks_checksum_failed",
    "mmap_partitions",
    "decode_seconds",
)


def request_key_count(request: Any) -> int:
    """How many keys a request asks about (for slow-query log lines)."""
    op = OPS.get(str(request.get("op"))) if isinstance(request, dict) else None
    for arg in op.args_for(request)[1] if op is not None else ():
        if arg.count is not None and isinstance(request.get(arg.field), list):
            return arg.count(request[arg.field])
    return 0


def _latency_summary(series: Dict[str, Any], quantiles: Tuple[float, ...]) -> Dict[str, float]:
    """Total, mean and ``quantiles`` of one latency histogram's snapshot."""
    summary = {
        "total_ms": round(series["sum"] * 1e3, 3),
        "mean_us": round(series["sum"] / series["count"] * 1e6, 1),
    }
    for quantile in quantiles:
        summary[f"p{round(quantile * 100)}_us"] = round(snapshot_quantile(series, quantile) * 1e6, 1)
    return summary


class ServerMetrics:
    """Thread-safe per-operation request counts and latency aggregates.

    Backed by a :class:`~repro.util.metrics.MetricsRegistry` (a private
    one unless the caller shares one in): per-operation counters, error
    counters, and fixed-bucket latency histograms, plus per-stage
    histograms fed by request tracing.  Percentiles in :meth:`snapshot`
    derive from the histograms, so every observation ever made weighs in.
    The registry itself is exposed as ``.registry`` so the owning service
    can hang scrape-time gauges (cache, I/O, connections) off the same
    exposition surface.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started_at = time.time()
        self._requests = self.registry.counter(
            "ngramstore_requests_total", "Requests served, by operation", labels=("op",)
        )
        self._request_errors = self.registry.counter(
            "ngramstore_request_errors_total",
            "Requests answered with an error, by operation",
            labels=("op",),
        )
        self._latency = self.registry.histogram(
            "ngramstore_request_seconds",
            "Request latency in seconds, by operation",
            labels=("op",),
        )
        self._stages = self.registry.histogram(
            "ngramstore_stage_seconds",
            "Per-request stage latency in seconds (parse/route/block_read/decode)",
            labels=("stage",),
        )
        self._connections = self.registry.counter(
            "ngramstore_connections_total", "Client connections accepted"
        )

    @property
    def connections_accepted(self) -> int:
        return int(self._connections.value())

    @property
    def requests(self) -> int:
        return int(self._requests.total())

    @property
    def errors(self) -> int:
        return int(self._request_errors.total())

    def record_connection(self) -> None:
        self._connections.inc()

    def record(self, operation: str, seconds: float, ok: bool) -> None:
        self._requests.inc(op=operation)
        if not ok:
            self._request_errors.inc(op=operation)
        self._latency.observe(seconds, op=operation)

    def record_stage(self, stage: str, seconds: float) -> None:
        self._stages.observe(seconds, stage=stage)

    def snapshot(self) -> Dict[str, Any]:
        """Aggregated counters plus histogram-derived percentiles, JSON-ready."""
        counts = {
            series["labels"]["op"]: int(series["value"])
            for series in self._requests.snapshot()
        }
        errors = {
            series["labels"]["op"]: int(series["value"])
            for series in self._request_errors.snapshot()
        }
        operations = {
            series["labels"]["op"]: {
                "count": counts.get(series["labels"]["op"], series["count"]),
                "errors": errors.get(series["labels"]["op"], 0),
                **_latency_summary(series, (0.50, 0.90, 0.99)),
                "max_us": round(series["max"] * 1e6, 1),
            }
            for series in self._latency.snapshot()
            if series["count"]
        }
        stages = {
            series["labels"]["stage"]: {"count": series["count"], **_latency_summary(series, (0.50, 0.99))}
            for series in self._stages.snapshot()
            if series["count"]
        }
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "connections_accepted": self.connections_accepted,
            "requests": self.requests,
            "errors": self.errors,
            "operations": operations,
            "stages": stages,
        }


class StoreService:
    """One served store and the single request path over it.

    ``store`` is a store directory — opened here behind one shared block
    cache of ``config.cache_blocks`` (an LSM directory as a
    :class:`~repro.ngramstore.lsm.GenerationView`; with
    ``config.num_shards > 1`` only the :class:`ShardView` slice
    ``config.shard_index`` owns) — or a caller-managed ``StoreAPI`` object
    (a store, a shard view, a router fronted as a gateway), whose cache
    setup is its own business.  ``active_connections`` is the owning
    transport's open-connection count, when it tracks one.
    """

    def __init__(
        self,
        store: Any,
        config: Optional[ServerConfig] = None,
        active_connections: Optional[Callable[[], int]] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self._active_connections = active_connections
        if isinstance(store, (str, os.PathLike)):
            self.cache: Optional[BlockCache] = BlockCache(self.config.cache_blocks)
            self.store = self._open(str(store))
        else:
            # self.cache is None when the store uses private per-table
            # caches, so stats reporting falls back to the store's own
            # aggregation instead of an orphan cache no table feeds.
            self.store = store
            self.cache = getattr(store, "cache", None)
        self.extra_store: Any = None
        if self.config.extra_store is not None:
            # The comparison store shares the process-wide block cache when
            # one exists (entries are namespaced by path, so the two stores
            # never collide) and must speak the served store's vocabulary.
            try:
                self.extra_store = open_store_auto(self.config.extra_store, cache=self.cache)
                ensure_comparable_vocabulary(self.store, self.extra_store)
            except Exception:
                if self.extra_store is not None:
                    self.extra_store.close()
                self.store.close()
                raise
        self.engine = QueryEngine(self.store, extra_store=self.extra_store)
        self.metrics = ServerMetrics()
        self.slow_log: Optional[SlowQueryLog] = None
        if self.config.slow_query_ms is not None:
            self.slow_log = SlowQueryLog(self.config.slow_query_ms, self.config.slow_query_log)
        self._register_observables()

    def _open(self, store_dir: str) -> Any:
        if self.config.num_shards == 1:
            return open_store_auto(store_dir, cache=self.cache)
        if is_lsm_dir(store_dir):
            # Range sharding slices one store's partition list; an LSM
            # directory has one list per generation, so there is no
            # single slice to own.
            raise StoreError(
                f"{store_dir!r} is an LSM store directory; range-sharded "
                "serving needs a single-generation store — run "
                "`repro compact --all` first"
            )
        return ShardView(
            NGramStore.open(store_dir, cache=self.cache),
            self.config.shard_index,
            self.config.num_shards,
        )

    def close(self) -> None:
        """Release the slow-query log and both stores."""
        if self.slow_log is not None:
            self.slow_log.close()
        if self.extra_store is not None:
            self.extra_store.close()
        self.store.close()

    # ---------------------------------------------------------- observation
    def _register_observables(self) -> None:
        """Hang scrape-time gauges for the served store off the metrics registry.

        The block cache, the reader's I/O counters and the connection set
        all keep live state of their own; callback gauges read them at
        scrape time instead of mirroring every mutation, so the hot path
        pays nothing for exposition.
        """
        registry, store, cache = self.metrics.registry, self.store, self.cache
        if hasattr(store, "cache_stats"):
            cache_events = registry.gauge(
                "ngramstore_block_cache_events",
                "Block cache counters since startup (monotonic)",
                labels=("event",),
            )
            for event in ("hits", "misses", "evictions"):
                cache_events.set_callback(
                    lambda event=event: float(getattr(store.cache_stats(), event)), event=event
                )
        if cache is not None:
            registry.gauge(
                "ngramstore_block_cache_capacity_blocks", "Shared block cache capacity"
            ).set_callback(lambda: float(cache.capacity))
            registry.gauge(
                "ngramstore_block_cache_resident_blocks", "Blocks currently cached"
            ).set_callback(lambda: float(len(cache)))
        if hasattr(store, "io_stats"):
            io_events = registry.gauge(
                "ngramstore_io_events",
                "Store I/O counters since startup: blocks decoded, bloom-filter "
                "rejections, mmap-served partitions, cumulative decode seconds",
                labels=("event",),
            )
            for event in _IO_EVENTS:
                io_events.set_callback(
                    lambda event=event: float(store.io_stats().get(event, 0)), event=event
                )
        if hasattr(store, "manifest"):
            registry.gauge(
                "ngramstore_store_records", "Records served by this store"
            ).set_callback(lambda: float(store.stats()["num_records"]))
            registry.gauge(
                "ngramstore_store_partitions", "Partitions served by this store"
            ).set_callback(lambda: float(store.stats()["num_partitions"]))
        if hasattr(store, "shard_index"):
            shard = registry.gauge(
                "ngramstore_shard", "Shard identity of this server", labels=("field",)
            )
            shard.set_callback(lambda: float(store.shard_index), field="index")
            shard.set_callback(lambda: float(store.num_shards), field="num_shards")
        if self._active_connections is not None:
            registry.gauge(
                "ngramstore_active_connections", "Open client connections"
            ).set_callback(lambda: float(self._active_connections()))

    def cache_summary(self) -> Dict[str, Any]:
        """Block-cache counters, JSON-ready (the ``server_stats`` cache shape).

        ``store.cache_stats()`` covers both layouts — the shared cache's
        counters, or the per-table aggregate for caller-managed stores;
        capacity/residency only exist when one shared cache is in play.
        The shared cache object outlives a closed store, so a shutdown
        report can still be built from this.
        """
        stats = self.store.cache_stats()
        summary: Dict[str, Any] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "hit_rate": round(stats.hit_rate, 6),
        }
        if self.cache is not None:
            summary["capacity_blocks"] = self.cache.capacity
            summary["resident_blocks"] = len(self.cache)
        return summary

    def server_stats(self) -> Dict[str, Any]:
        """The ``server_stats`` answer: request metrics, cache, connections."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache_summary()
        if self._active_connections is not None:
            snapshot["active_connections"] = self._active_connections()
        return snapshot

    def metrics_text(self) -> str:
        """The full Prometheus exposition for this service.

        A store that is itself an observable component (a
        :class:`~repro.ngramstore.router.ShardRouter` or
        :class:`~repro.ngramstore.router.ReplicaPool` fronted as a gateway)
        carries its own ``metrics_registry``; its series are appended so
        one scrape exposes router fan-out and quarantine series too.
        """
        text = self.metrics.registry.render_prometheus()
        store_registry = getattr(self.store, "metrics_registry", None)
        if store_registry is not None and store_registry is not self.metrics.registry:
            text += store_registry.render_prometheus()
        return text

    def _io_counters(self, operation: str) -> Optional[Dict[str, float]]:
        """Live I/O + cache counters, for per-request deltas on read operations.

        ``None`` for operations that never touch blocks (ping, stats, ...)
        or stores that expose neither surface — the delta is then skipped.
        """
        op = OPS.get(operation)
        if op is None or op.access != "blocks":
            return None
        counters: Dict[str, float] = {}
        if hasattr(self.store, "io_stats"):
            counters.update(self.store.io_stats())
        if hasattr(self.store, "cache_stats"):
            stats = self.store.cache_stats()
            counters["cache_hits"] = stats.hits
            counters["cache_misses"] = stats.misses
        return counters or None

    # ------------------------------------------------------------- requests
    def execute_json(self, payload: bytes) -> Dict[str, Any]:
        """Decode one JSON request (a line or an HTTP body) and :meth:`execute` it."""
        watch = Stopwatch()
        try:
            request: Any = json.loads(payload)
        except ValueError as error:
            request = StoreError(f"request is not valid JSON: {error}")
        return self.execute(request, parse_seconds=watch.elapsed())

    def execute(self, request: Any, parse_seconds: float = 0.0) -> Dict[str, Any]:
        """One decoded request -> one response dict, with metrics recorded.

        Shared by every framing — the transports differ only in how bytes
        become the request object and how the response object becomes
        bytes.  Pass an exception as ``request`` to report a decode failure
        through the same error/metrics path.  ``parse_seconds`` is time the
        transport already spent decoding the request bytes; it counts
        toward the request's latency and shows up as the ``parse`` stage.

        ``server_stats`` and ``metrics`` are service state and are answered
        here; every store query goes through the :class:`QueryEngine`.
        """
        watch = Stopwatch()
        operation = "invalid"
        trace = TraceContext.from_request(request)
        if parse_seconds:
            trace.add_stage("parse", parse_seconds)
        io_before: Optional[Dict[str, float]] = None
        try:
            if isinstance(request, Exception):
                raise request
            if not isinstance(request, dict):
                raise StoreError("request must be a JSON object")
            operation = str(request.get("op"))
            io_before = self._io_counters(operation)
            if operation == "server_stats":
                response = self.server_stats()
            elif operation == "metrics":
                response = {"text": self.metrics_text()}
            else:
                response = self.engine.handle(request, trace=trace)
            response["ok"] = True
        except (StoreError, KeyError, TypeError, ValueError) as error:
            response = {"ok": False, "error": f"{error}"}
        elapsed = watch.elapsed() + parse_seconds
        # Clamp to the known set: client-chosen strings must not grow the
        # metrics dict without bound on a long-lived server.
        bucket = operation if operation in OPS else "invalid"
        self._observe(trace, bucket, request, elapsed, response["ok"], io_before)
        return response

    def _observe(
        self,
        trace: TraceContext,
        bucket: str,
        request: Any,
        elapsed: float,
        ok: bool,
        io_before: Optional[Dict[str, float]],
    ) -> None:
        """One request's tail: metrics, stage histograms, maybe a slow-log line.

        When I/O counters were captured before the request, the engine's
        ``read`` stage is split into ``block_read`` vs ``decode`` using the
        decode time the store accumulated — the counters are process-wide,
        so under concurrent load the attribution is approximate; over a
        slow request's many blocks it is still the signal that matters.
        """
        io_delta: Optional[Dict[str, float]] = None
        if io_before is not None:
            io_after = self._io_counters(bucket) or {}
            io_delta = {
                field: io_after.get(field, 0) - before for field, before in io_before.items()
            }
            read_seconds = trace.stages.pop("read", None)
            decode_delta = io_delta.pop("decode_seconds", 0.0)
            if read_seconds is not None:
                decode = max(0.0, min(read_seconds, decode_delta))
                trace.add_stage("decode", decode)
                trace.add_stage("block_read", read_seconds - decode)
        self.metrics.record(bucket, elapsed, ok)
        for stage, seconds in trace.stages.items():
            self.metrics.record_stage(stage, seconds)
        if self.slow_log is not None and self.slow_log.should_log(elapsed):
            entry: Dict[str, Any] = {
                "trace_id": trace.trace_id,
                "op": bucket,
                "ok": ok,
                "duration_ms": round(elapsed * 1e3, 3),
                "key_count": request_key_count(request),
                "stages_ms": trace.stages_ms(),
            }
            if io_delta is not None:
                entry["io"] = {
                    field: round(value, 6) if isinstance(value, float) else value
                    for field, value in io_delta.items()
                }
            self.slow_log.record(entry)

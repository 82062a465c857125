"""Per-request tracing: IDs, stage timings, and the structured slow-query log.

"Why was this query slow?" is unanswerable when a request crosses a
router, a replica pool, a wire protocol, a query engine and a block
cache, and each layer keeps its own anonymous timers.  This module gives
every request one identity and one timing ledger:

* clients mint a **trace ID** at the entry point (:func:`attach_trace`)
  and send it as an optional ``trace`` field of the canonical request
  schema — both wire protocols carry dicts, so the field costs nothing
  and old servers simply ignore it;
* servers rebuild a :class:`TraceContext` from the incoming request
  (:meth:`TraceContext.from_request`), time named stages with
  ``with trace.stage("route"):`` as the request moves through parsing,
  routing, block reads and decoding, and stamp the trace ID on the
  response;
* requests that exceed a threshold are appended to a
  :class:`SlowQueryLog` — JSON-lines, one object per slow request,
  carrying the trace ID, operation, key count, per-stage seconds and
  I/O deltas (blocks decoded, bloom rejections, cache hits), so a slow
  client call can be joined to the exact server-side breakdown by ID.

Nothing here depends on the serving tier; the serving tier depends on
this, so MapReduce jobs and offline tools can reuse the same ledger.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, TextIO

from .timer import Stopwatch

__all__ = [
    "SlowQueryLog",
    "TraceContext",
    "attach_trace",
    "new_trace_id",
    "trace_id_of",
]

#: Name of the optional request field carrying trace metadata on the wire.
TRACE_FIELD = "trace"


def new_trace_id() -> str:
    """A fresh 64-bit random trace ID as 16 lowercase hex characters."""
    return os.urandom(8).hex()


def trace_id_of(request: Any) -> Optional[str]:
    """The trace ID carried by a request dict, if it has a well-formed one."""
    if not isinstance(request, dict):
        return None
    trace = request.get(TRACE_FIELD)
    if isinstance(trace, dict):
        trace_id = trace.get("id")
        if isinstance(trace_id, str) and trace_id:
            return trace_id
    return None


def attach_trace(request: Dict[str, Any]) -> str:
    """Ensure ``request`` carries a trace ID; return it.

    Client entry points call this just before serialization.  An already
    present well-formed ID is respected, so a router fanning a request
    out to shards propagates the caller's ID instead of minting new ones
    — every hop of one logical request logs under the same identity.
    """
    existing = trace_id_of(request)
    if existing is not None:
        return existing
    trace_id = new_trace_id()
    request[TRACE_FIELD] = {"id": trace_id}
    return trace_id


class TraceContext:
    """One request's identity plus a ledger of named stage timings.

    Stages accumulate: entering ``stage("read")`` twice adds both spans
    to the same entry, which is what a ``multi_get`` that touches the
    store once per key wants.  The context is confined to one request on
    one thread, so no locking is needed.
    """

    __slots__ = ("trace_id", "stages", "_watch")

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.stages: Dict[str, float] = {}
        self._watch = Stopwatch()

    @classmethod
    def from_request(cls, request: Any) -> "TraceContext":
        """Adopt the request's trace ID, or mint one for untraced requests.

        A malformed ``trace`` field counts as untraced: tracing is
        telemetry and must never fail a query.
        """
        return cls(trace_id_of(request))

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a named stage; nested different-named stages both count."""
        watch = Stopwatch()
        try:
            yield
        finally:
            self.add_stage(name, watch.elapsed())

    def add_stage(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` to a stage without the context-manager form."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def elapsed(self) -> float:
        """Seconds since this context was created."""
        return self._watch.elapsed()

    def stages_ms(self) -> Dict[str, float]:
        """Stage timings in milliseconds, rounded for log friendliness."""
        return {name: round(seconds * 1e3, 3) for name, seconds in self.stages.items()}


class SlowQueryLog:
    """Append-only JSON-lines log of requests that crossed a latency threshold.

    One :class:`SlowQueryLog` is shared by every connection thread of a
    server, so appends are serialized under a lock and flushed per line —
    a crash loses at most the line being written.  With ``path=None`` the
    log collects entries in memory (``entries``), which is what tests and
    the in-process servers use.
    """

    def __init__(
        self,
        threshold_ms: float,
        path: Optional[str] = None,
        *,
        stream: Optional[TextIO] = None,
    ) -> None:
        if threshold_ms < 0:
            raise ValueError(f"slow-query threshold must be >= 0, got {threshold_ms}")
        self.threshold_ms = float(threshold_ms)
        self.path = path
        self.entries: list = []
        self._lock = threading.Lock()
        self._stream = stream
        if path is not None:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
            self._stream = open(path, "a", encoding="utf-8")

    def should_log(self, duration_s: float) -> bool:
        return duration_s * 1e3 >= self.threshold_ms

    def record(self, entry: Dict[str, Any]) -> None:
        """Append one slow-query record (already past :meth:`should_log`)."""
        entry = dict(entry)
        entry.setdefault("ts", time.time())
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            self.entries.append(entry)
            if self._stream is not None:
                self._stream.write(line + "\n")
                self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if self.path is not None and self._stream is not None:
                self._stream.close()
            self._stream = None

    def __enter__(self) -> "SlowQueryLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

"""HTTP front-end for the unified :class:`StoreAPI` — stdlib only.

The socket protocol (:mod:`repro.ngramstore.server`) is the efficient
path for in-repo clients; this adapter makes the same store reachable by
anything that speaks HTTP — ``curl``, a browser, a load balancer's
health check — without adding a dependency.  This module is only routing
and HTTP framing: one :class:`~http.server.ThreadingHTTPServer` maps two
surfaces onto the ``execute`` of one
:class:`~repro.ngramstore.service.StoreService`, the same path the socket
server runs (so both transports answer identically by construction):

* ``POST /query`` — the full unified request schema as a JSON body,
  answered exactly like one socket protocol line::

      $ curl -d '{"op": "get", "key": [3, 7]}' http://host:port/query
      {"ok": true, "found": true, "value": 42}

* ``GET /<op>?<fields>`` for every operation the op table
  (:data:`~repro.ngramstore.api.OPS`) marks ``http`` — the README's op
  reference lists them with examples — plus ``GET /metrics``, the
  Prometheus text exposition.  Lists are comma-separated (``key=3,7``,
  ``terms=new,york``) and ``surface=1`` renders ``top_k`` results as terms.

Errors come back as ``{"ok": false, "error": ...}`` with status 400 (bad
request) or 404 (unknown route).

:class:`HttpStoreClient` is the in-repo client: a
:class:`~repro.ngramstore.api.RemoteStore` over ``POST /query`` via
:mod:`urllib.request`, interchangeable with the socket
:class:`~repro.ngramstore.server.StoreClient` anywhere a ``StoreAPI`` is
expected (including inside replica pools and shard routers).
"""

from __future__ import annotations

import json
import threading
import time
from http import client as http_client
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib import parse as urllib_parse

from repro.config import ServerConfig
from repro.exceptions import StoreConnectionError, StoreError
from repro.ngramstore.api import OPS, RemoteStore
from repro.ngramstore.service import MAX_REQUEST_BYTES, StoreService
from repro.util.metrics import default_registry
from repro.util.timer import Stopwatch
from repro.util.tracing import attach_trace

#: GET routes that map straight to unified-schema operations.
GET_ROUTES = tuple(op.name for op in OPS.values() if op.http)

#: Query-string fields of those routes, each read by its ``Arg.query``.
_QUERY_ARGS = {arg.field: arg for op in OPS.values() if op.http for arg in op.args + op.terms if arg.query}

#: Content type of the ``GET /metrics`` exposition (Prometheus text 0.0.4).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _request_from_query(operation: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Build a unified-schema request dict from GET query parameters."""
    if "terms" in params:
        params.pop("key", None)  # surface terms win, as in the engine
    request: Dict[str, Any] = {"op": operation}
    for field, arg in _QUERY_ARGS.items():
        if field in params:
            request[field] = arg.query(params[field][-1], field)
    return request


class _StoreRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto the owning server's :class:`StoreService`."""

    protocol_version = "HTTP/1.1"
    server: "_HTTPServer"

    def setup(self) -> None:
        super().setup()
        # One handler instance serves one (possibly keep-alive) connection.
        self.server.service.metrics.record_connection()

    # ----------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # metrics replace the default stderr access log

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        try:
            text = json.dumps(payload, separators=(",", ":"))
        except (TypeError, ValueError) as error:
            status = 500
            text = json.dumps({"ok": False, "error": f"value is not JSON-serialisable: {error}"})
        self._send_text(status, text, "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_response(self, response: Dict[str, Any]) -> None:
        """Write one ``execute`` answer: 200 when ``ok``, else 400."""
        self._send_json(200 if response["ok"] else 400, response)

    # ------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        service = self.server.service
        parsed = urllib_parse.urlsplit(self.path)
        operation = parsed.path.strip("/")
        if operation == "metrics":
            # The Prometheus scrape surface: raw exposition text, not the
            # JSON envelope (scrapers do not speak the unified schema).
            watch = Stopwatch()
            text = service.metrics_text()
            service.metrics.record("metrics", watch.elapsed(), True)
            self._send_text(200, text, METRICS_CONTENT_TYPE)
            return
        if operation not in GET_ROUTES:
            self._send_json(
                404,
                {
                    "ok": False,
                    "error": f"unknown route {parsed.path!r}; GET routes: "
                    + ", ".join(f"/{name}" for name in GET_ROUTES)
                    + ", /metrics; or POST /query",
                },
            )
            return
        try:
            request = _request_from_query(operation, urllib_parse.parse_qs(parsed.query))
        except StoreError as error:
            service.metrics.record(operation, 0.0, False)
            self._send_json(400, {"ok": False, "error": f"{error}"})
            return
        self._send_response(service.execute(request))

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        parsed = urllib_parse.urlsplit(self.path)
        if parsed.path.rstrip("/") != "/query":
            self._send_json(
                404, {"ok": False, "error": f"unknown route {parsed.path!r}; POST /query"}
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_REQUEST_BYTES:
            self._send_json(400, {"ok": False, "error": "request exceeds 1 MiB"})
            return
        self._send_response(self.server.service.execute_json(self.rfile.read(length)))


class _HTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer whose handlers answer from one :class:`StoreService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: StoreService) -> None:
        self.service = service
        super().__init__(address, _StoreRequestHandler)


class NGramStoreHTTPServer:
    """Serves one store (or shard view) over HTTP; see the module docstring.

    The lifecycle mirrors :class:`~repro.ngramstore.server.NGramStoreServer`:
    construct with a store directory (the server opens it behind a shared
    block cache) or a caller-managed store object, ``start()`` to bind and
    serve from background threads, ``close()`` to stop and release the
    store.  ``config.max_clients`` is advisory here — the stdlib threading
    server spawns a thread per request — so the knob that matters is the
    shared ``cache_blocks``.
    """

    def __init__(self, store: Any, config: Optional[ServerConfig] = None) -> None:
        self.service = StoreService(store, config)
        self.host = self.service.config.host
        self.port = self.service.config.port
        self._httpd: Optional[_HTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # ----------------------------------------------------------- lifecycle
    def start(self) -> Tuple[str, int]:
        """Bind, listen and serve in background threads; returns (host, port)."""
        if self._httpd is not None:
            raise StoreError("server already started")
        self._httpd = _HTTPServer((self.host, self.port), self.service)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="ngramstore-http",
            daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.close()

    def __enter__(self) -> "NGramStoreHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class HttpStoreClient(RemoteStore):
    """``StoreAPI`` client over ``POST /query`` — the HTTP twin of
    :class:`~repro.ngramstore.server.StoreClient`.

    Connections are pooled and kept alive: the server speaks HTTP/1.1
    with explicit ``Content-Length``, so one TCP connection carries many
    requests instead of paying a handshake per call.  The pool is a
    lock-guarded idle stack — a thread borrows a connection for the
    duration of one call, so one instance is safe to share across threads
    (concurrent callers simply grow the pool to the concurrency level;
    ``connections_opened`` counts how many were ever dialled).

    A *reused* connection that fails mid-call is most likely a keep-alive
    connection the server idled out — it is discarded and the call
    retried on a fresh one without burning the retry budget.  Failures on
    fresh connections (refused, reset, timeout) raise
    :class:`StoreConnectionError` after a bounded retry loop, so an
    :class:`~repro.ngramstore.router.ReplicaPool` of HTTP clients fails
    over exactly like one of socket clients.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 2,
        backoff: float = 0.05,
    ) -> None:
        if max_retries < 0:
            raise StoreError(f"max_retries must be >= 0, got {max_retries}")
        self.base_url = url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        parsed = urllib_parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise StoreError(
                f"store server URL must be http(s)://host[:port][/path], got {url!r}"
            )
        self._netloc = parsed.netloc
        self._scheme = parsed.scheme
        self._path = (parsed.path or "") + "/query"
        self.connections_opened = 0
        self.last_trace_id: Optional[str] = None
        self._dial_counter = default_registry().counter(
            "ngramstore_client_connections_opened_total",
            "TCP connections dialled by in-process store clients",
            labels=("transport",),
        )
        self._idle: List[http_client.HTTPConnection] = []
        self._pool_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------ connection pool
    def _acquire(self) -> Tuple[http_client.HTTPConnection, bool]:
        """A connection to run one request on; ``(connection, reused)``."""
        with self._pool_lock:
            if self._idle:
                return self._idle.pop(), True
            self.connections_opened += 1
        self._dial_counter.inc(transport="http")
        connection_class = (
            http_client.HTTPSConnection
            if self._scheme == "https"
            else http_client.HTTPConnection
        )
        return connection_class(self._netloc, timeout=self.timeout), False

    def _release(self, connection: http_client.HTTPConnection) -> None:
        with self._pool_lock:
            if not self._closed:
                self._idle.append(connection)
                return
        connection.close()

    # ------------------------------------------------------------- transport
    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise StoreError("client is closed")
        self.last_trace_id = attach_trace(request)
        payload = json.dumps(request, separators=(",", ":")).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        attempts = self.max_retries + 1
        failures = 0
        while True:
            connection, reused = self._acquire()
            try:
                connection.request("POST", self._path, body=payload, headers=headers)
                reply = connection.getresponse()
                body = reply.read()
                status = reply.status
                keep = not reply.will_close
            except (http_client.HTTPException, OSError) as error:
                connection.close()
                if reused:
                    # A pooled connection the server idled out between
                    # calls — not a dead endpoint.  Retry on a fresh
                    # connection without burning the retry budget.
                    continue
                failures += 1
                if failures >= attempts:
                    raise StoreConnectionError(
                        f"cannot reach store server {self.base_url}: {error}"
                    ) from error
                time.sleep(self.backoff * (2 ** (failures - 1)))
                continue
            if keep:
                self._release(connection)
            else:
                connection.close()
            if status >= 400:
                # The server answered: an application error, not a dead
                # endpoint — surface it without burning retries.
                try:
                    detail = json.loads(body).get("error", "unknown")
                except (ValueError, AttributeError):
                    detail = f"HTTP {status}"
                raise StoreError(f"server error: {detail}")
            response = json.loads(body)
            if not response.get("ok"):
                raise StoreError(f"server error: {response.get('error', 'unknown')}")
            return response

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

"""Long-lived socket query server over one shared store, and its client.

The ``query`` CLI opens (and throws away) a store per invocation.
:class:`NGramStoreServer` keeps one
:class:`~repro.ngramstore.service.StoreService` — the open store, its
process-wide LRU :class:`~repro.ngramstore.table.BlockCache`, the query
engine and the metrics — alive in one process and serves concurrent
clients from a thread per connection.  This module is only the transport:
the accept loop and the two framings of the socket protocol.  Every
decoded request is answered by ``StoreService.execute``, the same path
the HTTP adapter (:mod:`repro.ngramstore.http`) runs.

The preferred framing is the binary protocol of
:mod:`repro.ngramstore.wire`: a client opens with the ``NGWIRE1\\n`` magic
line, the server answers with a framed hello, and both sides exchange
varint-framed binary messages.  A connection that does not open with the
magic is served newline-delimited JSON — one request object per line, one
response object per line.  Both framings carry the same unified schema
(:class:`~repro.ngramstore.api.QueryEngine`); every operation, its fields
and an example exchange are in the op table
(:data:`~repro.ngramstore.api.OPS`) and the README's op reference
rendered from it::

    -> {"op": "get", "key": [3, 7]}
    <- {"ok": true, "found": true, "value": 42}

Keys travel as arrays of term identifiers (the store's native keys);
term-keyed variants (``"terms"`` instead of ``"key"``/``"keys"``, or
``"surface": true`` on ``top_k``) run the vocabulary translation
server-side, where the dictionary lives.  Failures come back as
``{"ok": false, "error": ...}`` on the same stream, so one bad request
does not cost the connection.  :class:`StoreClient` is the in-repo
client: a :class:`~repro.ngramstore.api.RemoteStore` that speaks either
framing and hands back the canonical records, exactly what a local store
itself returns — the serve-smoke CI step asserts that equivalence.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from contextlib import suppress
from typing import Any, Dict, List, Optional, Tuple

from repro.config import ServerConfig
from repro.exceptions import SerializationError, StoreConnectionError, StoreError
from repro.ngramstore.api import RemoteStore
from repro.ngramstore.service import MAX_REQUEST_BYTES, StoreService
from repro.ngramstore.wire import (
    WIRE_MAGIC,
    encode_hello,
    encode_message,
    read_message,
)
from repro.util.tracing import attach_trace

__all__ = ["MAX_REQUEST_BYTES", "NGramStoreServer", "StoreClient", "percentile"]


def percentile(sorted_samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sample list (must be non-empty)."""
    rank = max(1, min(len(sorted_samples), math.ceil(len(sorted_samples) * fraction)))
    return sorted_samples[rank - 1]


def _shut(connection: socket.socket) -> None:
    """Shut a socket down both ways and close it, ignoring one already gone."""
    with suppress(OSError):
        connection.shutdown(socket.SHUT_RDWR)
    with suppress(OSError):
        connection.close()


class NGramStoreServer:
    """Serves one store to concurrent socket clients; see the module docstring.

    ``max_clients`` bounds the handler threads: when every slot is busy the
    accept loop simply stops accepting, so excess connections queue in the
    listen backlog (backpressure) instead of failing or piling up threads.
    """

    def __init__(self, store: Any, config: Optional[ServerConfig] = None) -> None:
        self.service = StoreService(store, config, self._active_connections)
        self.config = self.service.config
        self.host = self.config.host
        self.port = self.config.port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._slots = threading.Semaphore(self.config.max_clients)
        self._shutdown = threading.Event()
        self._connections: "set[socket.socket]" = set()
        self._connections_lock = threading.Lock()

    def _active_connections(self) -> int:
        with self._connections_lock:
            return len(self._connections)

    # ----------------------------------------------------------- lifecycle
    def start(self) -> Tuple[str, int]:
        """Bind, listen and serve in background threads; returns (host, port)."""
        if self._listener is not None:
            raise StoreError("server already started")
        self._listener = socket.create_server(
            (self.host, self.port), backlog=self.config.max_clients
        )
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ngramstore-accept", daemon=True
        )
        self._accept_thread.start()
        return self.host, self.port

    def close(self) -> None:
        """Stop accepting, drop open connections, close the store."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        if self._listener is not None:
            # shutdown() before close(): on Linux, close() alone does not
            # wake a thread blocked in accept() — it would sit there until
            # the next (never-coming) connection.
            _shut(self._listener)
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            _shut(connection)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self.service.close()

    def __enter__(self) -> "NGramStoreServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- serving
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            # A free handler slot is a precondition for accepting: the
            # kernel backlog, not a thread pile-up, absorbs bursts beyond
            # max_clients.
            self._slots.acquire()
            try:
                connection, _ = self._listener.accept()
            except OSError:
                self._slots.release()
                if self._shutdown.is_set():
                    return
                # Transient accept failures (ECONNABORTED from a client
                # resetting in the backlog, EMFILE under fd pressure) must
                # not permanently stop a live server; back off and retry.
                time.sleep(0.05)
                continue
            if self._shutdown.is_set():
                connection.close()
                self._slots.release()
                return
            self.service.metrics.record_connection()
            with self._connections_lock:
                self._connections.add(connection)
            handler = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="ngramstore-client",
                daemon=True,
            )
            try:
                handler.start()
            except RuntimeError:
                # Thread exhaustion: drop this connection, keep serving.
                with self._connections_lock:
                    self._connections.discard(connection)
                connection.close()
                self._slots.release()

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            reader = connection.makefile("rb")
            with reader:
                first_line = True
                while not self._shutdown.is_set():
                    line = reader.readline(MAX_REQUEST_BYTES + 1)
                    if not line:
                        return
                    if first_line and line.rstrip(b"\r\n") == WIRE_MAGIC:
                        # Answer the hello frame and switch the whole
                        # connection to binary framing.
                        self._serve_binary(connection, reader)
                        return
                    first_line = False
                    if len(line) > MAX_REQUEST_BYTES:
                        self._respond(
                            connection,
                            {"ok": False, "error": "request exceeds 1 MiB"},
                        )
                        return
                    if not self._respond(connection, self.service.execute_json(line)):
                        return
        except OSError:
            pass  # client went away (or shutdown closed the socket underneath)
        finally:
            with self._connections_lock:
                self._connections.discard(connection)
            with suppress(OSError):
                connection.close()
            self._slots.release()

    def _serve_binary(self, connection: socket.socket, reader: Any) -> None:
        """Serve one binary-framed connection until it closes.

        Framing errors (truncated, oversized or undecodable frames) end
        the connection after one in-stream error message — past the frame
        boundary nothing can be trusted, exactly like an unterminated JSON
        line.  Requests that *decode* but are invalid are answered
        in-stream and the connection lives on.
        """
        connection.sendall(encode_hello())
        while not self._shutdown.is_set():
            try:
                request = read_message(reader, MAX_REQUEST_BYTES)
            except SerializationError as error:
                self._respond_binary(connection, {"ok": False, "error": f"{error}"})
                return
            if request is None:
                return
            if not self._respond_binary(connection, self.service.execute(request)):
                return

    def _respond(self, connection: socket.socket, response: Dict[str, Any]) -> bool:
        try:
            payload = json.dumps(response, separators=(",", ":"))
        except (TypeError, ValueError) as error:
            # Non-JSON-serialisable store values (arbitrary build_store
            # payloads) are a per-request failure, not a dead connection.
            payload = json.dumps(
                {"ok": False, "error": f"value is not JSON-serialisable: {error}"}
            )
        try:
            connection.sendall(payload.encode("utf-8") + b"\n")
            return True
        except OSError:
            return False

    def _respond_binary(self, connection: socket.socket, response: Dict[str, Any]) -> bool:
        try:
            message = encode_message(response)
        except SerializationError as error:
            # Mirror of the JSON path's non-serialisable-value fallback.
            message = encode_message(
                {"ok": False, "error": f"value is not wire-serialisable: {error}"}
            )
        try:
            connection.sendall(message)
            return True
        except OSError:
            return False


class StoreClient(RemoteStore):
    """Socket client for :class:`NGramStoreServer`.

    A :class:`~repro.ngramstore.api.RemoteStore`: the full ``StoreAPI``
    surface over one TCP connection, returning the canonical records.  One
    instance owns one connection and is not itself thread-safe; concurrent
    callers each open their own (the server is built for many connections).

    Connection handling is resilient by default because every operation
    is an idempotent read: the initial connect retries ``max_retries``
    times with exponential ``backoff`` (a server still binding its socket
    answers ``ECONNREFUSED`` for a moment), and a dropped connection
    mid-stream (server restart, idle reset) triggers a bounded
    reconnect-and-resend instead of failing the first caller.  A dead
    endpoint surfaces as :class:`StoreConnectionError`, which replica
    pools treat as "fail over", unlike an application
    :class:`StoreError` the server answered.

    ``protocol`` selects the wire framing: ``"binary"`` (the default)
    opens with the magic line and exchanges varint-framed messages;
    ``"json"`` speaks newline-delimited JSON.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        read_timeout: float = 30.0,
        max_retries: int = 2,
        backoff: float = 0.05,
        protocol: str = "binary",
    ) -> None:
        if max_retries < 0:
            raise StoreError(f"max_retries must be >= 0, got {max_retries}")
        if protocol not in ("binary", "json"):
            raise StoreError(f"protocol must be 'binary' or 'json', got {protocol!r}")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.protocol = protocol
        self.last_trace_id: Optional[str] = None
        self._socket: Optional[socket.socket] = None
        self._reader: Optional[Any] = None
        self._closed = False
        self._connect()

    # ------------------------------------------------------------ plumbing
    def _drop(self) -> None:
        """Forget the current connection (it is broken or being replaced)."""
        for resource in (self._reader, self._socket):
            if resource is not None:
                with suppress(OSError):
                    resource.close()
        self._reader = self._socket = None

    def _connect(self) -> None:
        """Establish the connection, retrying refused/reset attempts.

        ``ECONNREFUSED`` right after a server (re)start is a timing
        artifact, not a verdict — a bounded backoff loop absorbs it; a
        server that is truly gone becomes :class:`StoreConnectionError`
        after the last attempt.
        """
        self._drop()
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            try:
                self._socket = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                self._socket.settimeout(self.read_timeout)
                self._reader = self._socket.makefile("rb")
                if self.protocol == "binary":
                    self._open_binary()
                return
            except OSError as error:
                self._drop()
                if attempt + 1 >= attempts:
                    raise StoreConnectionError(
                        f"cannot connect to store server {self.host}:{self.port} "
                        f"after {attempts} attempts: {error}"
                    ) from error
                time.sleep(self.backoff * (2 ** attempt))

    def _open_binary(self) -> None:
        """Send the magic line and require the server's framed hello."""
        self._socket.sendall(WIRE_MAGIC + b"\n")
        hello = read_message(self._reader, MAX_REQUEST_BYTES)
        if hello is None:
            raise ConnectionResetError("server closed during the binary hello")
        if not isinstance(hello, dict) or hello.get("protocol") != "binary":
            raise StoreConnectionError(
                f"store server {self.host}:{self.port} sent a malformed "
                f"binary hello: {hello!r}"
            )

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise StoreError("client is closed")
        # Every request leaves this client with a trace ID (an existing one
        # is respected — a router propagating a caller's ID wins), and the
        # ID is kept so the caller can join client-side latency to the
        # server's slow-query log line for the same request.
        self.last_trace_id = attach_trace(request)
        attempts = self.max_retries + 1
        response: Any = None
        for attempt in range(attempts):
            try:
                if self._socket is None:
                    self._connect()
                response = self._exchange(request)
                break
            except (OSError, SerializationError) as error:
                # Reads are idempotent, so resending after a reconnect is
                # safe; a connection that stays dead through the retry
                # budget is a dead endpoint.  A framing error
                # (SerializationError) means the stream cannot be trusted
                # past this point — same remedy, reconnect.
                self._drop()
                if attempt + 1 >= attempts:
                    raise StoreConnectionError(
                        f"lost connection to store server {self.host}:{self.port}: "
                        f"{error}"
                    ) from error
                time.sleep(self.backoff * (2 ** attempt))
        if not response.get("ok"):
            raise StoreError(f"server error: {response.get('error', 'unknown')}")
        return response

    def _exchange(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request and read its response on the live connection."""
        if self.protocol == "binary":
            self._socket.sendall(encode_message(request))
            response = read_message(self._reader)
            if response is None:
                raise ConnectionResetError("server closed the connection")
            if not isinstance(response, dict):
                raise SerializationError(
                    f"binary response is {type(response).__name__}, expected dict"
                )
            return response
        payload = json.dumps(request, separators=(",", ":")).encode("utf-8") + b"\n"
        self._socket.sendall(payload)
        line = self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return json.loads(line)

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._closed = True
        self._drop()

"""The unified query surface every store front-end speaks: ``StoreAPI``.

One contract, implemented by every local composition and every client:

* ``get`` / ``multi_get`` — point lookups by n-gram key (term-id tuples);
* ``prefix`` / ``multi_prefix`` — bounded range scan of every n-gram
  starting with a key;
* ``top_k`` — the k best records by frequency (or the first k by key);
* ``complete`` — next-word prediction: the k best single-token
  continuations of a prefix, in deterministic ``(-count, token)`` order;
* ``compare`` — point diff/intersect lookup across the served store and a
  second *comparison* store mounted server-side (``serve --extra-store``);
* ``stats`` — store metadata (record/partition counts, vocabulary flag);
* ``close`` + context-manager lifecycle;
* surface-term variants (``get_terms`` / ``multi_get_terms`` /
  ``prefix_terms`` / ``top_k_terms`` / ``complete_terms``) backed by the
  store's *persisted* dictionary — translation happens wherever the
  dictionary lives (the server, for remote implementations), so clients
  never download it.

A local implementation provides only the **kernel** — ``get``, an ordered
``scan(start, stop)``, ``stats``, a ``vocabulary`` property, ``close``
and, where block summaries allow skipping, ``top_k_into`` — and
:class:`StoreAPI` derives every other operation from it exactly once, so
semantics cannot diverge between compositions.  :class:`RemoteStore` is
the one place where operations are instead fused into a single round trip.

The canonical result shape is :class:`NGramRecord` — a ``(ngram, value)``
named tuple, where ``ngram`` is a tuple of term identifiers (or of surface
term strings for the ``*_terms`` variants).  Being a tuple subclass it
compares equal to plain ``(key, value)`` tuples.  The conformance suite
asserts identical results across every implementation: the local
:class:`~repro.ngramstore.reader.NGramStore`, the LSM
:class:`~repro.ngramstore.lsm.GenerationView`,
:class:`~repro.ngramstore.router.ShardView` slices, the socket
:class:`~repro.ngramstore.server.StoreClient`, the
:class:`~repro.ngramstore.router.ReplicaPool`, the range-sharded
:class:`~repro.ngramstore.router.ShardRouter`, and the
:class:`~repro.ngramstore.http.HttpStoreClient`.

:class:`QueryEngine` is the transport-independent server half: it maps one
request object of the unified wire schema (shared verbatim by the TCP
socket protocol and the HTTP adapter) to one response object, enforcing
the server-side result caps.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import StoreError, VocabularyError
from repro.ngramstore.table import (
    TOP_K_ORDERS,
    TopKAccumulator,
    _frequency_type_error,
    prefix_records,
    validate_top_k,
)

_MISSING = object()


class NGramRecord(NamedTuple):
    """Canonical ``(ngram, value)`` result record of every ``StoreAPI``.

    ``ngram`` is a tuple of term identifiers — or of surface term strings
    when produced by a ``*_terms`` operation.  As a tuple subclass it is
    equal to (and unpacks like) the bare 2-tuples older call sites expect.
    """

    ngram: Tuple
    value: Any


Record = NGramRecord


class Completion(NamedTuple):
    """One ``complete`` result: a continuation token and its frequency.

    ``token`` is a term identifier — or a surface term string when produced
    by ``complete_terms``.  Tuple-compatible, like :class:`NGramRecord`.
    """

    token: Any
    value: Any

#: Server-side result caps: a single response is one JSON payload held in
#: memory, so unbounded prefix scans (or absurd k / batch sizes) must not
#: let one request materialise a whole larger-than-RAM store.  Capped
#: prefix responses set ``truncated``; clients page with an explicit limit
#: or fall back to offline scans for bulk exports.
MAX_PREFIX_RECORDS = 10_000
MAX_TOP_K = 10_000
MAX_BATCH_KEYS = 10_000

#: Default result size of the ``complete`` operation.
DEFAULT_COMPLETE_K = 5

#: Operations of the unified wire protocol (also the metrics buckets).
OPERATIONS = (
    "get",
    "multi_get",
    "prefix",
    "multi_prefix",
    "top_k",
    "complete",
    "compare",
    "translate",
    "render",
    "stats",
    "server_stats",
    "metrics",
    "ping",
)

def validate_prefix_limit(limit: Any) -> Optional[int]:
    """Validate a ``prefix`` result cap: ``None`` (uncapped) or an int >= 0."""
    if limit is not None and (not isinstance(limit, int) or limit < 0):
        raise StoreError(f"prefix limit must be a non-negative integer, got {limit!r}")
    return limit


def validate_complete_k(k: Any) -> int:
    """Validate a ``complete`` result size: a positive int within the cap."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise StoreError(f"complete k must be a positive integer, got {k!r}")
    if k > MAX_TOP_K:
        raise StoreError(f"complete k must be <= {MAX_TOP_K}, got {k}")
    return k


def complete_scan(
    records: Iterable[Record], prefix_length: int, k: int
) -> Tuple[List[Completion], bool]:
    """The canonical completion scan every implementation shares.

    ``records`` streams the prefix-matching records in key order (a store's
    ``prefix(key)``, or an equivalently sorted in-memory slice); records
    one token longer than the prefix are the completion candidates, ranked
    by ``(-value, token)`` — the explicit token tie-break is what makes
    results byte-identical across the local store, every wire transport,
    and :meth:`~repro.applications.language_model.NGramLanguageModel.
    complete`, which all funnel through this function.  At most
    ``MAX_PREFIX_RECORDS`` records are scanned; the returned flag reports
    whether the scan was cut short (so very hot prefixes degrade loudly,
    not wrongly).  Returns ``(top-k completions, truncated)``.
    """
    candidates: List[Tuple[Any, Any]] = []
    truncated = False
    scanned = 0
    for key, value in records:
        if scanned >= MAX_PREFIX_RECORDS:
            truncated = True
            break
        scanned += 1
        if len(key) != prefix_length + 1:
            continue
        candidates.append((key[prefix_length], value))
    try:
        candidates.sort(key=lambda item: (-item[1], item[0]))
    except TypeError as exc:
        raise StoreError(
            f"complete requires numeric, mutually comparable frequencies ({exc})"
        ) from exc
    return [Completion(token, value) for token, value in candidates[:k]], truncated


def ensure_comparable_vocabulary(primary: Any, extra: Any) -> None:
    """Refuse mounting a comparison store whose vocabulary differs.

    ``compare`` translates surface terms against the *primary* store's
    dictionary and looks the resulting ids up in both stores, which is only
    meaningful when both were encoded against the same dictionary.  Stores
    without a persisted vocabulary are trusted (id-keyed deployments manage
    agreement themselves).
    """
    vocabulary_a = getattr(primary, "vocabulary", None)
    vocabulary_b = getattr(extra, "vocabulary", None)
    if vocabulary_a is None or vocabulary_b is None:
        return
    if list(vocabulary_a.to_lines()) != list(vocabulary_b.to_lines()):
        raise StoreError(
            "cannot mount the comparison store: its vocabulary differs from "
            "the served store's, so term ids are not comparable across the "
            "two; re-count both against one shared dictionary"
        )


class StoreAPI:
    """The unified query contract (see the module docstring).

    A local composition implements the kernel — :meth:`get`, :meth:`scan`,
    :meth:`stats`, :attr:`vocabulary`, :meth:`close`, and optionally
    :meth:`top_k_into` — and inherits everything else.  Remote
    implementations have no ``scan``; they override the derived operations
    to fuse each into one round trip (see :class:`RemoteStore`).
    """

    # -------------------------------------------------------------- kernel
    def get(self, ngram: Iterable[Any], default: Any = None) -> Any:
        """The value stored for ``ngram``, or ``default``."""
        raise NotImplementedError

    def scan(self, start: Any = None, stop: Any = None) -> Iterator[Record]:
        """Stream ``(key, value)`` with ``start <= key < stop`` in key order."""
        raise NotImplementedError

    def top_k_into(self, accumulator: TopKAccumulator) -> None:
        """Offer every candidate record to a caller-owned top-k heap.

        The default offers the whole :meth:`scan`; implementations with
        per-block summaries override it to skip blocks that cannot beat the
        heap floor.
        """
        for key, value in self.scan():
            accumulator.offer(key, value)

    def stats(self) -> Dict[str, Any]:
        """Store metadata: record/partition counts, codec, vocabulary flag."""
        raise NotImplementedError

    @property
    def vocabulary(self) -> Optional[Any]:
        """The persisted dictionary behind the ``*_terms`` operations, if any."""
        return None

    def close(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------ derived queries
    def prefix(self, tokens: Iterable[Any], limit: Optional[int] = None) -> Iterable[Record]:
        """Records whose key starts with ``tokens``, in key order (lazy).

        ``limit`` caps the result count; remote implementations raise
        :class:`StoreError` when an uncapped request hits the server cap
        (a silently partial answer would be a wrong answer).
        """
        records = prefix_records(self.scan, tuple(tokens))
        if validate_prefix_limit(limit) is not None:
            records = islice(records, limit)
        return (NGramRecord(key, value) for key, value in records)

    def top_k(self, k: int, order: str = "frequency") -> List[Record]:
        """The ``k`` best records store-wide under ``order``, in O(k) memory."""
        validate_top_k(k, order)
        if order == "key":
            return [NGramRecord(key, value) for key, value in islice(self.scan(), k)]
        accumulator = TopKAccumulator(k)
        try:
            self.top_k_into(accumulator)
            return [NGramRecord(key, value) for key, value in accumulator.results()]
        except TypeError as exc:
            raise _frequency_type_error(exc) from exc

    def multi_get(self, ngrams: Sequence[Iterable[Any]], default: Any = None) -> List[Any]:
        """Values for ``ngrams`` in order (``default`` where absent)."""
        return [self.get(ngram, default) for ngram in ngrams]

    def multi_prefix(
        self, prefixes: Sequence[Iterable[Any]], limit: Optional[int] = None
    ) -> List[List[Record]]:
        """One prefix scan per entry of ``prefixes``, order-aligned."""
        return [list(self.prefix(prefix, limit=limit)) for prefix in prefixes]

    def complete(self, ngram: Iterable[Any], k: int = DEFAULT_COMPLETE_K) -> List[Completion]:
        """The ``k`` best single-token continuations of ``ngram``.

        A prefix scan filtered to records exactly one token longer than the
        prefix, ranked ``(-value, token)`` — see :func:`complete_scan` for
        the canonical semantics every implementation shares.  An empty
        prefix predicts first words (top unigrams).
        """
        key = tuple(ngram)
        completions, _ = complete_scan(self.prefix(key), len(key), validate_complete_k(k))
        return completions

    def ping(self) -> bool:
        """Liveness probe; local implementations are trivially alive."""
        return True

    # ------------------------------------------------------ vocabulary ops
    def _require_vocabulary(self) -> Any:
        vocabulary = self.vocabulary
        if vocabulary is None:
            raise StoreError(
                f"{type(self).__name__} has no persisted vocabulary; term-keyed "
                "operations need a store built from an encoded collection"
            )
        return vocabulary

    def translate_terms(self, items: Sequence[Sequence[str]]) -> List[Optional[Tuple]]:
        """Surface-term tuples -> key tuples; ``None`` where any term is unknown.

        Unknown terms are a normal query outcome (the corpus simply never
        produced them), not an error — the caller treats the n-gram as absent.
        """
        vocabulary = self._require_vocabulary()
        keys: List[Optional[Tuple]] = []
        for terms in items:
            try:
                keys.append(tuple(vocabulary.term_id(term) for term in terms))
            except VocabularyError:
                keys.append(None)
        return keys

    def render_ngrams(self, ngrams: Sequence[Tuple]) -> List[Tuple[str, ...]]:
        """Key tuples -> surface-term tuples via the persisted dictionary."""
        vocabulary = self._require_vocabulary()
        return [tuple(vocabulary.term(term_id) for term_id in ngram) for ngram in ngrams]

    def _rendered(self, records: List[Record]) -> List[Record]:
        surfaces = self.render_ngrams([record[0] for record in records])
        return [NGramRecord(surface, record[1]) for surface, record in zip(surfaces, records)]

    def get_terms(self, terms: Sequence[str], default: Any = None) -> Any:
        """Point lookup keyed by surface terms; unknown terms are absent."""
        (key,) = self.translate_terms([tuple(terms)])
        return default if key is None else self.get(key, default)

    def multi_get_terms(
        self, items: Sequence[Sequence[str]], default: Any = None
    ) -> List[Any]:
        """Batched surface-term lookups, order-aligned with ``items``."""
        keys = self.translate_terms([tuple(item) for item in items])
        values = iter(self.multi_get([key for key in keys if key is not None], default))
        return [default if key is None else next(values) for key in keys]

    def prefix_terms(
        self, terms: Sequence[str], limit: Optional[int] = None
    ) -> List[Record]:
        """Prefix scan keyed and rendered in surface terms."""
        (key,) = self.translate_terms([tuple(terms)])
        return [] if key is None else self._rendered(list(self.prefix(key, limit=limit)))

    def top_k_terms(self, k: int, order: str = "frequency") -> List[Record]:
        """Top-k with keys rendered as surface terms."""
        return self._rendered(self.top_k(k, order))

    def complete_terms(
        self, terms: Sequence[str], k: int = DEFAULT_COMPLETE_K
    ) -> List[Completion]:
        """Completions keyed and rendered in surface terms.

        Unknown prefix terms mean nothing can continue them: the result is
        empty, not an error.  Ranking happens in id space (before
        rendering), so the order matches the id-keyed ``complete`` exactly.
        """
        (key,) = self.translate_terms([tuple(terms)])
        if key is None:
            return []
        completions = self.complete(key, k)
        rendered = self.render_ngrams([(completion.token,) for completion in completions])
        return [
            Completion(surface[0], completion.value)
            for surface, completion in zip(rendered, completions)
        ]

    # ------------------------------------------------- container protocol
    def frequency(self, ngram: Iterable[Any]) -> Any:
        """Statistics-style lookup: the stored value, or 0 when absent."""
        return self.get(ngram, 0)

    def items(self) -> Iterator[Record]:
        """Stream every record in key order."""
        return self.scan()

    def __iter__(self) -> Iterator[Any]:
        """Stream every key in key order."""
        return (key for key, _ in self.scan())

    def __contains__(self, ngram: object) -> bool:
        return isinstance(ngram, tuple) and self.get(ngram, _MISSING) is not _MISSING

    def __len__(self) -> int:
        return self.stats()["num_records"]

    # ----------------------------------------------------------- lifecycle
    def __enter__(self) -> "StoreAPI":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RemoteStore(StoreAPI):
    """``StoreAPI`` over a request/response wire: shared by every client.

    Subclasses (the socket :class:`~repro.ngramstore.server.StoreClient`
    and the :class:`~repro.ngramstore.http.HttpStoreClient`) provide only
    ``_call`` (one unified-schema request dict -> the response dict) and
    ``close``; everything else — including the surface-term variants,
    which run server-side in a single round trip — lives here, so the two
    transports cannot drift apart.
    """

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    # ------------------------------------------------------------- queries
    def get(self, ngram: Iterable[Any], default: Any = None) -> Any:
        response = self._call({"op": "get", "key": list(ngram)})
        return response["value"] if response["found"] else default

    def multi_get(self, ngrams: Sequence[Iterable[Any]], default: Any = None) -> List[Any]:
        response = self._call(
            {"op": "multi_get", "keys": [list(ngram) for ngram in ngrams]}
        )
        return [
            value if found else default
            for found, value in zip(response["found"], response["values"])
        ]

    @staticmethod
    def _prefix_records(result: Dict[str, Any], limit: Optional[int]) -> List[Record]:
        """One prefix result's records, refusing a silently partial answer."""
        records = result["records"]
        if result.get("truncated") and (limit is None or len(records) < limit):
            # Truncated short of what the caller asked for (everything, or
            # a limit above the server cap): a silently partial result
            # would be a wrong answer.
            raise StoreError(
                f"prefix result truncated at the server cap ({MAX_PREFIX_RECORDS} "
                "records); pass a limit at or below the cap, or export offline"
            )
        return [NGramRecord(tuple(key), value) for key, value in records]

    def _call_limited(self, request: Dict[str, Any], limit: Optional[int]) -> Dict[str, Any]:
        if limit is not None:
            request["limit"] = limit
        return self._call(request)

    def prefix(self, tokens: Iterable[Any], limit: Optional[int] = None) -> List[Record]:
        response = self._call_limited({"op": "prefix", "key": list(tokens)}, limit)
        return self._prefix_records(response, limit)

    def multi_prefix(
        self, prefixes: Sequence[Iterable[Any]], limit: Optional[int] = None
    ) -> List[List[Record]]:
        response = self._call_limited(
            {"op": "multi_prefix", "keys": [list(prefix) for prefix in prefixes]}, limit
        )
        return [self._prefix_records(result, limit) for result in response["results"]]

    def top_k(self, k: int, order: str = "frequency") -> List[Record]:
        response = self._call({"op": "top_k", "k": k, "order": order})
        return [NGramRecord(tuple(key), value) for key, value in response["records"]]

    @staticmethod
    def _strip_envelope(response: Dict[str, Any]) -> Dict[str, Any]:
        """Drop protocol fields so remote stats match local ones byte for byte."""
        return {key: value for key, value in response.items() if key != "ok"}

    def stats(self) -> Dict[str, Any]:
        return self._strip_envelope(self._call({"op": "stats"}))

    def server_stats(self) -> Dict[str, Any]:
        return self._strip_envelope(self._call({"op": "server_stats"}))

    def metrics_text(self) -> str:
        """The server's metrics in the Prometheus text exposition format."""
        return str(self._call({"op": "metrics"}).get("text", ""))

    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("pong"))

    # ------------------------------------------- server-side vocabulary ops
    def translate_terms(self, items: Sequence[Sequence[str]]) -> List[Optional[Tuple]]:
        response = self._call({"op": "translate", "terms": [list(item) for item in items]})
        return [None if key is None else tuple(key) for key in response["keys"]]

    def render_ngrams(self, ngrams: Sequence[Tuple]) -> List[Tuple[str, ...]]:
        response = self._call({"op": "render", "ngrams": [list(ngram) for ngram in ngrams]})
        return [tuple(terms) for terms in response["terms"]]

    def get_terms(self, terms: Sequence[str], default: Any = None) -> Any:
        response = self._call({"op": "get", "terms": list(terms)})
        return response["value"] if response["found"] else default

    def multi_get_terms(
        self, items: Sequence[Sequence[str]], default: Any = None
    ) -> List[Any]:
        response = self._call(
            {"op": "multi_get", "terms": [list(item) for item in items]}
        )
        return [
            value if found else default
            for found, value in zip(response["found"], response["values"])
        ]

    def prefix_terms(
        self, terms: Sequence[str], limit: Optional[int] = None
    ) -> List[Record]:
        response = self._call_limited({"op": "prefix", "terms": list(terms)}, limit)
        return self._prefix_records(response, limit)

    def top_k_terms(self, k: int, order: str = "frequency") -> List[Record]:
        response = self._call({"op": "top_k", "k": k, "order": order, "surface": True})
        return [NGramRecord(tuple(key), value) for key, value in response["records"]]

    # --------------------------------------------------- analytics serving
    def complete(self, ngram: Iterable[Any], k: int = DEFAULT_COMPLETE_K) -> List[Completion]:
        response = self._call({"op": "complete", "key": list(ngram), "k": k})
        return [Completion(token, value) for token, value in response["completions"]]

    def complete_terms(
        self, terms: Sequence[str], k: int = DEFAULT_COMPLETE_K
    ) -> List[Completion]:
        response = self._call({"op": "complete", "terms": list(terms), "k": k})
        return [Completion(token, value) for token, value in response["completions"]]

    def compare(self, ngram: Iterable[Any]) -> Dict[str, Any]:
        """Point lookup of ``ngram`` in the served store *and* the mounted
        comparison store: ``{"found_a", "value_a", "found_b", "value_b"}``.

        Raises :class:`StoreError` when the server was started without
        ``--extra-store``.
        """
        return self._strip_envelope(self._call({"op": "compare", "key": list(ngram)}))

    def compare_terms(self, terms: Sequence[str]) -> Dict[str, Any]:
        return self._strip_envelope(self._call({"op": "compare", "terms": list(terms)}))


def _validated_terms_batch(data: Any, field: str) -> List[Tuple[str, ...]]:
    if not isinstance(data, list):
        raise StoreError(f"{field} must be a JSON array of term arrays")
    batch = []
    for item in data:
        if not isinstance(item, list) or not all(isinstance(term, str) for term in item):
            raise StoreError(f"each {field} entry must be a JSON array of strings")
        batch.append(tuple(item))
    return batch


def _json_key(data: Any, field: str = "key") -> Tuple:
    if not isinstance(data, list):
        raise StoreError(
            f"{field} must be a JSON array of terms, got {type(data).__name__}"
        )
    return tuple(data)


class _NullTrace:
    """Stage-timing no-op used when a request arrives without tracing."""

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        yield


_NULL_TRACE = _NullTrace()


class QueryEngine:
    """Maps unified-schema request dicts to response dicts over one store.

    The store is any ``StoreAPI`` (a local composition, or a router
    fronted as a gateway); the one engine lives in a
    :class:`~repro.ngramstore.service.StoreService`, which both transports
    call.  ``server_stats`` and ``metrics`` are *not* handled here — they
    are the service's state (metrics, cache, connection counts), not the
    store's.

    ``extra_store`` is an optional second store (``serve --extra-store``)
    the ``compare`` operation looks keys up in alongside the primary;
    without one, ``compare`` is a clean :class:`StoreError`.  Surface
    terms are always translated against the *primary* store's vocabulary.
    """

    def __init__(self, store: Any, extra_store: Any = None) -> None:
        self.store = store
        self.extra_store = extra_store

    # ------------------------------------------------------------ helpers
    def _request_key(self, request: Dict[str, Any], surface: bool) -> Optional[Tuple]:
        """The query key of a get/prefix request; None for unknown terms."""
        if surface:
            terms = request.get("terms")
            if not isinstance(terms, list) or not all(
                isinstance(term, str) for term in terms
            ):
                raise StoreError("terms must be a JSON array of strings")
            (key,) = self.store.translate_terms([tuple(terms)])
            return key
        return _json_key(request.get("key"))

    def _record_payload(self, records: List[Record], surface: bool) -> List[List[Any]]:
        if surface:
            rendered = self.store.render_ngrams([record[0] for record in records])
            return [
                [list(terms), record[1]] for terms, record in zip(rendered, records)
            ]
        return [[list(record[0]), record[1]] for record in records]

    def _prefix_response(
        self, key: Optional[Tuple], limit: Optional[int], surface: bool
    ) -> Dict[str, Any]:
        if key is None:  # unknown surface term: nothing can match
            return {"records": [], "truncated": False}
        effective_limit = (
            MAX_PREFIX_RECORDS if limit is None else min(limit, MAX_PREFIX_RECORDS)
        )
        records: List[Record] = []
        truncated = False
        for record_key, value in self.store.prefix(key):
            if len(records) >= effective_limit:
                truncated = True
                break
            records.append(NGramRecord(record_key, value))
        return {
            "records": self._record_payload(records, surface),
            "truncated": truncated,
        }

    # ------------------------------------------------------------- handle
    def handle(self, request: Dict[str, Any], trace: Any = None) -> Dict[str, Any]:
        """Answer one unified-schema request.

        ``trace`` is an optional :class:`~repro.util.tracing.TraceContext`;
        when given, time spent routing the request (validation, surface-term
        translation) and reading the store is credited to its ``route`` and
        ``read`` stages, which is what lets a slow-query log line say *where*
        a request's latency went.
        """
        if trace is None:
            trace = _NULL_TRACE
        operation = str(request.get("op"))
        surface = "terms" in request or bool(request.get("surface"))
        if operation == "get":
            with trace.stage("route"):
                key = self._request_key(request, surface)
            with trace.stage("read"):
                value = _MISSING if key is None else self.store.get(key, _MISSING)
            if value is _MISSING:
                return {"found": False, "value": None}
            return {"found": True, "value": value}
        if operation == "multi_get":
            with trace.stage("route"):
                if surface:
                    keys = self.store.translate_terms(
                        _validated_terms_batch(request.get("terms"), "terms")
                    )
                else:
                    data = request.get("keys")
                    if not isinstance(data, list):
                        raise StoreError("keys must be a JSON array of key arrays")
                    keys = [_json_key(item, "each key") for item in data]
                if len(keys) > MAX_BATCH_KEYS:
                    raise StoreError(
                        f"multi_get batch must be <= {MAX_BATCH_KEYS} keys, "
                        f"got {len(keys)}"
                    )
            found: List[bool] = []
            values: List[Any] = []
            with trace.stage("read"):
                for key in keys:
                    value = _MISSING if key is None else self.store.get(key, _MISSING)
                    found.append(value is not _MISSING)
                    values.append(None if value is _MISSING else value)
            return {"found": found, "values": values}
        if operation == "prefix":
            with trace.stage("route"):
                key = self._request_key(request, surface)
                limit = validate_prefix_limit(request.get("limit"))
            with trace.stage("read"):
                return self._prefix_response(key, limit, surface)
        if operation == "multi_prefix":
            with trace.stage("route"):
                data = request.get("keys")
                if not isinstance(data, list):
                    raise StoreError("keys must be a JSON array of key arrays")
                keys = [_json_key(item, "each key") for item in data]
                if len(keys) > MAX_BATCH_KEYS:
                    raise StoreError(
                        f"multi_prefix batch must be <= {MAX_BATCH_KEYS} keys, "
                        f"got {len(keys)}"
                    )
                limit = validate_prefix_limit(request.get("limit"))
            with trace.stage("read"):
                return {
                    "results": [
                        self._prefix_response(key, limit, surface=False) for key in keys
                    ]
                }
        if operation == "top_k":
            with trace.stage("route"):
                k = request.get("k")
                if not isinstance(k, int) or isinstance(k, bool):
                    raise StoreError(f"top_k k must be an integer, got {k!r}")
                if k > MAX_TOP_K:
                    raise StoreError(f"top_k k must be <= {MAX_TOP_K}, got {k}")
                order = request.get("order", "frequency")
                if order not in TOP_K_ORDERS:
                    raise StoreError(
                        f"top_k order must be one of {', '.join(TOP_K_ORDERS)}, "
                        f"got {order!r}"
                    )
                validate_top_k(k, order)
            with trace.stage("read"):
                records = self.store.top_k(k, order)
                return {"records": self._record_payload(records, surface)}
        if operation == "complete":
            with trace.stage("route"):
                key = self._request_key(request, surface)
                k = validate_complete_k(request.get("k", DEFAULT_COMPLETE_K))
            with trace.stage("read"):
                if key is None:  # unknown surface term: nothing continues it
                    completions, truncated = [], False
                else:
                    completions, truncated = complete_scan(
                        self.store.prefix(key), len(key), k
                    )
                if surface:
                    rendered = self.store.render_ngrams(
                        [(completion.token,) for completion in completions]
                    )
                    payload = [
                        [terms[0], completion.value]
                        for terms, completion in zip(rendered, completions)
                    ]
                else:
                    payload = [
                        [completion.token, completion.value]
                        for completion in completions
                    ]
            return {"completions": payload, "truncated": truncated}
        if operation == "compare":
            with trace.stage("route"):
                if self.extra_store is None:
                    raise StoreError(
                        "no comparison store mounted; start the server with "
                        "--extra-store to enable 'compare'"
                    )
                key = self._request_key(request, surface)
            with trace.stage("read"):
                value_a = _MISSING if key is None else self.store.get(key, _MISSING)
                value_b = (
                    _MISSING if key is None else self.extra_store.get(key, _MISSING)
                )
            return {
                "found_a": value_a is not _MISSING,
                "value_a": None if value_a is _MISSING else value_a,
                "found_b": value_b is not _MISSING,
                "value_b": None if value_b is _MISSING else value_b,
            }
        if operation == "translate":
            with trace.stage("route"):
                batch = _validated_terms_batch(request.get("terms"), "terms")
                if len(batch) > MAX_BATCH_KEYS:
                    raise StoreError(
                        f"translate batch must be <= {MAX_BATCH_KEYS} items, "
                        f"got {len(batch)}"
                    )
            with trace.stage("read"):
                keys = self.store.translate_terms(batch)
            return {"keys": [None if key is None else list(key) for key in keys]}
        if operation == "render":
            with trace.stage("route"):
                data = request.get("ngrams")
                if not isinstance(data, list):
                    raise StoreError("ngrams must be a JSON array of key arrays")
                if len(data) > MAX_BATCH_KEYS:
                    raise StoreError(
                        f"render batch must be <= {MAX_BATCH_KEYS} items, "
                        f"got {len(data)}"
                    )
                ngrams = [_json_key(item, "each ngram") for item in data]
            with trace.stage("read"):
                try:
                    rendered = self.store.render_ngrams(ngrams)
                except VocabularyError as error:
                    raise StoreError(f"{error}") from error
            return {"terms": [list(terms) for terms in rendered]}
        if operation == "stats":
            with trace.stage("read"):
                return dict(self.store.stats())
        if operation == "ping":
            return {"pong": True}
        raise StoreError(
            f"unknown op {operation!r}; expected one of {', '.join(OPERATIONS)}"
        )

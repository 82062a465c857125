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

:data:`OPS` is the protocol's one definition: each served operation is one
:class:`Op` row — its typed :class:`Arg` fields with their validators and
server caps, the client methods it backs, its response shape, what it
reads, its HTTP GET route and an example exchange.  Derived from it:
:class:`RemoteStore`'s methods, :meth:`QueryEngine.handle` (the
transport-independent server half, shared verbatim by the socket protocol
and the HTTP adapter), the HTTP GET routes, the service's per-request I/O
accounting, :class:`~repro.ngramstore.router.ReplicaPool`'s delegations and
the README's op reference (:func:`render_op_reference`).  Adding an
operation is one row plus its ``StoreAPI`` method.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import StoreError, VocabularyError
from repro.ngramstore.table import TopKAccumulator, _frequency_type_error, prefix_records, validate_top_k

_MISSING = object()
_REQUIRED = object()


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

def validate_prefix_limit(limit: Any) -> Optional[int]:
    """Validate a ``prefix`` result cap: ``None`` (uncapped) or an int >= 0."""
    if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool) or limit < 0):
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
        validate_prefix_limit(limit)
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
        return [] if key is None else self._rendered_completions(self.complete(key, k))

    def _rendered_completions(self, completions: List[Completion]) -> List[Completion]:
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


# ------------------------------------------------------------- the op table
class Arg(NamedTuple):
    """One typed field of an operation's request.

    ``field`` is the wire name (``None`` for a client-side parameter such as
    ``default``) and ``param`` the client method's parameter name (``None``
    for a constant the ``*_terms`` variant sets: ``surface``).
    ``parse(value, op, store)`` validates a request's value server-side,
    server caps included, and translates surface terms where the field
    carries them; ``encode`` turns a client argument into its wire value;
    ``query(raw, field)`` reads an HTTP query-string value; ``count`` says
    how many keys a request value asks about (slow-query log lines).
    """

    field: Optional[str]
    param: Optional[str]
    default: Any = _REQUIRED
    parse: Optional[Callable[[Any, str, Any], Any]] = None
    encode: Callable[[Any], Any] = lambda value: value
    query: Optional[Callable[[str, str], Any]] = None
    count: Optional[Callable[[Any], int]] = None


def _key(data: Any, op: str, store: Any) -> Tuple:
    if not isinstance(data, list):
        raise StoreError(f"key must be a JSON array of terms, got {type(data).__name__}")
    return tuple(data)


def _terms_key(terms: Any, op: str, store: Any) -> Optional[Tuple]:
    """One surface-term key, translated; ``None`` when a term is unknown."""
    if not isinstance(terms, list) or not all(isinstance(term, str) for term in terms):
        raise StoreError("terms must be a JSON array of strings")
    return store.translate_terms([tuple(terms)])[0]


def _capped(batch: List[Tuple], op: str, unit: str) -> List[Tuple]:
    if len(batch) > MAX_BATCH_KEYS:
        raise StoreError(f"{op} batch must be <= {MAX_BATCH_KEYS} {unit}, got {len(batch)}")
    return batch


def _key_batch(field: str, item: str, unit: str) -> Callable[[Any, str, Any], List[Tuple]]:
    def parse(data: Any, op: str, store: Any) -> List[Tuple]:
        if not isinstance(data, list):
            raise StoreError(f"{field} must be a JSON array of key arrays")
        # One type check and one tuple() per key: multi_get's hot path.
        for entry in data:
            if not isinstance(entry, list):
                raise StoreError(f"each {item} must be a JSON array of terms, got {type(entry).__name__}")
        return _capped(list(map(tuple, data)), op, unit)

    return parse


def _terms_batch(data: Any, op: str, store: Any, unit: str = "items") -> List[Tuple]:
    if not isinstance(data, list):
        raise StoreError("terms must be a JSON array of term arrays")
    for entry in data:
        if not isinstance(entry, list) or not all(isinstance(term, str) for term in entry):
            raise StoreError("each terms entry must be a JSON array of strings")
    return _capped(list(map(tuple, data)), op, unit)


def _terms_keys(data: Any, op: str, store: Any) -> List[Optional[Tuple]]:
    """A batch of surface-term keys: checked against the cap, then translated."""
    return store.translate_terms(_terms_batch(data, op, store, "keys"))


def _top_k_cap(k: Any, op: str, store: Any) -> Any:
    # The row's check, validate_top_k, refuses a non-integer k next.
    if isinstance(k, int) and not isinstance(k, bool) and k > MAX_TOP_K:
        raise StoreError(f"top_k k must be <= {MAX_TOP_K}, got {k}")
    return k


def _key_query(raw: str, field: str) -> List[int]:
    try:
        return [int(part) for part in raw.split(",")] if raw else []
    except ValueError:
        raise StoreError(f"key must be comma-separated term identifiers, got {raw!r} (use terms= for surface terms)")


def _int_query(raw: str, field: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise StoreError(f"{field} must be an integer, got {raw!r}")


def _lists(items: Iterable[Iterable[Any]]) -> List[List[Any]]:
    return [list(item) for item in items]


def _one(value: Any) -> int:
    return 1


KEY = Arg("key", "ngram", parse=_key, encode=list, query=_key_query, count=_one)
TERMS = Arg("terms", "terms", parse=_terms_key, encode=list, query=lambda raw, field: raw.split(","), count=_one)
KEYS = Arg("keys", "ngrams", parse=_key_batch("keys", "key", "keys"), encode=_lists, count=len)
TERMS_KEYS = Arg("terms", "items", parse=_terms_keys, encode=_lists, count=len)
TERMS_BATCH = Arg("terms", "items", parse=_terms_batch, encode=_lists, count=len)
NGRAMS = Arg("ngrams", "ngrams", parse=_key_batch("ngrams", "ngram", "items"), encode=_lists, count=len)
LIMIT = Arg("limit", "limit", None, lambda limit, op, store: validate_prefix_limit(limit), query=_int_query)
TOP_K = Arg("k", "k", parse=_top_k_cap, query=_int_query)
COMPLETE_K = Arg("k", "k", DEFAULT_COMPLETE_K, lambda k, op, store: validate_complete_k(k), query=_int_query)
ORDER = Arg("order", "order", "frequency", lambda order, op, store: order, query=lambda raw, field: raw)
SURFACE = Arg("surface", None, True, query=lambda raw, field: raw not in ("", "0", "false", "no"))
DEFAULT = Arg(None, "default", None)


class Op(NamedTuple):
    """One served operation, declared once.

    ``method`` is the client method it backs (``f"{method}_terms"`` too when
    ``terms`` lists the surface-term variant's arguments); ``serve(engine,
    surface, *parsed_args)`` answers it in the :class:`QueryEngine`
    (``None``: the service's own state), after ``check(*parsed_args)``, a
    validator over several arguments that local stores run too;
    ``decode(response, call)`` turns a response back into the client
    method's result.  ``access`` is what the
    op reads — ``"blocks"`` (per-request I/O deltas), ``"store"`` (metadata
    or the dictionary) or nothing; ``http`` gives it a ``GET /<name>`` route.
    ``example``/``reply`` are one request's fields and its answer, for the
    op reference and the tests.
    """

    name: str
    method: str
    args: Tuple[Arg, ...]
    serve: Optional[Callable[..., Dict[str, Any]]]
    decode: Callable[[Dict[str, Any], Dict[str, Any]], Any]
    example: Dict[str, Any]
    reply: Dict[str, Any]
    terms: Tuple[Arg, ...] = ()
    check: Optional[Callable[..., None]] = None
    access: Optional[str] = None
    http: bool = False
    needs_extra_store: bool = False

    @property
    def methods(self) -> Tuple[str, ...]:
        return (self.method, f"{self.method}_terms") if self.terms else (self.method,)

    def args_for(self, request: Dict[str, Any]) -> Tuple[bool, Tuple[Arg, ...]]:
        """``(surface, arguments)`` of one request: keyed by terms, or by ids."""
        surface = "terms" in request or bool(request.get("surface"))
        return surface, self.terms if surface and self.terms else self.args

    @property
    def request(self) -> Dict[str, Any]:
        return {"op": self.name, **self.example}

    @property
    def route(self) -> str:
        """The example as a GET route: ``/get?key=3,7``."""
        query = "&".join(f"{field}={_query_value(value)}" for field, value in self.example.items())
        return f"/{self.name}?{query}" if query else f"/{self.name}"


def _query_value(value: Any) -> str:
    if isinstance(value, list):
        return ",".join(str(item) for item in value)
    return "1" if value is True else str(value)


def _lookup(store: Any, key: Optional[Tuple]) -> Any:
    return _MISSING if key is None else store.get(key, _MISSING)


def _found(value: Any, suffix: str = "") -> Dict[str, Any]:
    return {f"found{suffix}": value is not _MISSING, f"value{suffix}": None if value is _MISSING else value}


def _serve_multi_get(engine: "QueryEngine", surface: bool, keys: List[Optional[Tuple]]) -> Dict[str, Any]:
    get = engine.store.get
    values = [_MISSING if key is None else get(key, _MISSING) for key in keys]
    return {
        "found": [value is not _MISSING for value in values],
        "values": [None if value is _MISSING else value for value in values],
    }


def _serve_complete(engine: "QueryEngine", surface: bool, key: Optional[Tuple], k: int) -> Dict[str, Any]:
    if key is None:  # unknown surface term: nothing continues it
        completions, truncated = [], False
    else:
        completions, truncated = complete_scan(engine.store.prefix(key), len(key), k)
    if surface:
        completions = engine.store._rendered_completions(completions)
    return {"completions": [list(completion) for completion in completions], "truncated": truncated}


def _serve_render(engine: "QueryEngine", surface: bool, ngrams: List[Tuple]) -> Dict[str, Any]:
    try:
        rendered = engine.store.render_ngrams(ngrams)
    except VocabularyError as error:
        raise StoreError(f"{error}") from error
    return {"terms": [list(terms) for terms in rendered]}


def _prefix_records(result: Dict[str, Any], limit: Optional[int]) -> List[Record]:
    """One prefix result's records, refusing a silently partial answer."""
    records = result["records"]
    if result.get("truncated") and (limit is None or len(records) < limit):
        # Truncated short of what the caller asked for (everything, or a
        # limit above the server cap): a partial result would be wrong.
        raise StoreError(
            f"prefix result truncated at the server cap ({MAX_PREFIX_RECORDS} "
            "records); pass a limit at or below the cap, or export offline"
        )
    return _records(records)


def _records(rows: List[List[Any]]) -> List[Record]:
    return [NGramRecord(tuple(key), value) for key, value in rows]


def _envelope(response: Dict[str, Any], call: Dict[str, Any]) -> Dict[str, Any]:
    """Drop protocol fields so remote answers match local ones byte for byte."""
    return {key: value for key, value in response.items() if key != "ok"}


#: Every served operation, in protocol order (the order also names the
#: metrics buckets and the "unknown op" hint).
OPS: Dict[str, Op] = {op.name: op for op in (
    Op("get", "get", (KEY, DEFAULT), lambda engine, surface, key: _found(_lookup(engine.store, key)),
       lambda response, call: response["value"] if response["found"] else call["default"],
       {"key": [3, 7]}, {"found": True, "value": 42},
       terms=(TERMS, DEFAULT), access="blocks", http=True),
    Op("multi_get", "multi_get", (KEYS, DEFAULT), _serve_multi_get,
       lambda response, call: [
           value if found else call["default"] for found, value in zip(response["found"], response["values"])
       ],
       {"keys": [[3, 7], [9]]}, {"found": [True, False], "values": [42, None]},
       terms=(TERMS_KEYS, DEFAULT), access="blocks"),
    Op("prefix", "prefix", (KEY, LIMIT),
       lambda engine, surface, key, limit: engine._prefix_response(key, limit, surface),
       lambda response, call: _prefix_records(response, call["limit"]),
       {"key": [3], "limit": 100}, {"records": [[[3], 57], [[3, 7], 42]], "truncated": False},
       terms=(TERMS, LIMIT), access="blocks", http=True),
    Op("multi_prefix", "multi_prefix", (KEYS, LIMIT),
       lambda engine, surface, keys, limit: {
           "results": [engine._prefix_response(key, limit, False) for key in keys]
       },
       lambda response, call: [_prefix_records(result, call["limit"]) for result in response["results"]],
       {"keys": [[3], [9]], "limit": 100},
       {"results": [{"records": [[[3], 57]], "truncated": False}, {"records": [], "truncated": False}]},
       access="blocks"),
    Op("top_k", "top_k", (TOP_K, ORDER),
       lambda engine, surface, k, order: {"records": engine._record_payload(engine.store.top_k(k, order), surface)},
       lambda response, call: _records(response["records"]),
       {"k": 10, "order": "frequency"}, {"records": [[[0], 981], [[1], 944]]},
       terms=(TOP_K, ORDER, SURFACE), check=validate_top_k, access="blocks", http=True),
    Op("complete", "complete", (KEY, COMPLETE_K), _serve_complete,
       lambda response, call: [Completion(token, value) for token, value in response["completions"]],
       {"terms": ["new", "york"], "k": 5}, {"completions": [["times", 87], ["city", 61]], "truncated": False},
       terms=(TERMS, COMPLETE_K), access="blocks", http=True),
    Op("compare", "compare",
       (KEY,), lambda engine, surface, key: {
           **_found(_lookup(engine.store, key), "_a"), **_found(_lookup(engine.extra_store, key), "_b")
       },
       _envelope, {"terms": ["new", "york"]}, {"found_a": True, "value_a": 812, "found_b": True, "value_b": 64},
       terms=(TERMS,), access="blocks", http=True, needs_extra_store=True),
    Op("translate", "translate_terms", (TERMS_BATCH,),
       lambda engine, surface, batch: {
           "keys": [None if key is None else list(key) for key in engine.store.translate_terms(batch)]
       },
       lambda response, call: [None if key is None else tuple(key) for key in response["keys"]],
       {"terms": [["the", "quick"], ["no-such-term"]]}, {"keys": [[0, 17], None]}, access="store"),
    Op("render", "render_ngrams", (NGRAMS,), _serve_render,
       lambda response, call: [tuple(terms) for terms in response["terms"]],
       {"ngrams": [[0, 17]]}, {"terms": [["the", "quick"]]}, access="store"),
    Op("stats", "stats", (), lambda engine, surface: dict(engine.store.stats()), _envelope,
       {}, {"store_dir": "/data/store", "num_records": 20311, "num_partitions": 4, "codec": "gzip"},
       access="store", http=True),
    Op("server_stats", "server_stats", (), None, _envelope,
       {}, {"uptime_s": 12.5, "requests": 3, "errors": 0, "operations": {}, "cache": {}}, http=True),
    Op("metrics", "metrics_text", (), None, lambda response, call: str(response.get("text", "")),
       {}, {"text": "# HELP ngramstore_requests_total Requests served, by operation\n"}),
    Op("ping", "ping", (), lambda engine, surface: {"pong": True}, lambda response, call: bool(response.get("pong")),
       {}, {"pong": True}, http=True),
)}

#: Operations of the unified wire protocol (also the metrics buckets).
OPERATIONS = tuple(OPS)


def render_op_reference() -> str:
    """The README's op reference, rendered from :data:`OPS` (a test keeps them equal)."""
    lines = ["| op | request fields | client methods | GET route |", "|---|---|---|---|"]
    for op in OPS.values():
        fields = " or ".join(
            ", ".join(f"`{arg.field}`" + ("" if arg.default is _REQUIRED else "?") for arg in args if arg.field)
            for args in (op.args, op.terms) if args
        )
        methods = ", ".join(f"`{method}`" for method in op.methods)
        route = f"`GET {op.route}`" if op.http else ""
        lines.append(f"| `{op.name}` | {fields or '—'} | {methods} | {route} |")
    lines += ["", "```"]
    for op in OPS.values():
        lines += [f"-> {json.dumps(op.request)}", f"<- {json.dumps({'ok': True, **op.reply})}"]
    return "\n".join(lines + ["```"])


def _remote_method(op: Op, surface: bool) -> Callable[..., Any]:
    """``op`` as a :class:`RemoteStore` method: bind, encode, one round trip, decode."""
    args = op.terms if surface else op.args
    names = tuple(arg.param for arg in args if arg.param is not None)
    name = op.methods[surface]

    def method(self: "RemoteStore", *values: Any, **named: Any) -> Any:
        call = dict(zip(names, values))
        if len(values) > len(names) or any(param not in names or param in call for param in named):
            raise TypeError(f"{name}() takes {', '.join(names) or 'no arguments'}; got {values!r}, {named!r}")
        call.update(named)
        request: Dict[str, Any] = {"op": op.name}
        for arg in args:
            value = call.setdefault(arg.param, arg.default) if arg.param else arg.default
            if value is _REQUIRED:
                raise TypeError(f"{name}() missing required argument {arg.param!r}")
            if arg.field is not None and value is not None:
                request[arg.field] = arg.encode(value)
        return op.decode(self._call(request), call)

    method.__name__ = name
    method.__qualname__ = f"RemoteStore.{name}"
    method.__doc__ = f"The ``{op.name}`` operation in one round trip (see :data:`OPS`)."
    return method


class RemoteStore(StoreAPI):
    """``StoreAPI`` over a request/response wire: shared by every client.

    Subclasses (the socket :class:`~repro.ngramstore.server.StoreClient`
    and the :class:`~repro.ngramstore.http.HttpStoreClient`) provide only
    ``_call`` (one unified-schema request dict -> the response dict) and
    ``close``.  Every operation method — the surface-term variants
    included, which run server-side in a single round trip — is generated
    from :data:`OPS`, so the two transports cannot drift apart.
    """

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError


for _op in OPS.values():
    for _surface, _name in enumerate(_op.methods):
        setattr(RemoteStore, _name, _remote_method(_op, bool(_surface)))


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
    def _record_payload(self, records: List[Record], surface: bool) -> List[List[Any]]:
        if surface:
            records = self.store._rendered(records)
        return [[list(key), value] for key, value in records]

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
        """Answer one unified-schema request through its :data:`OPS` row.

        ``trace`` is an optional :class:`~repro.util.tracing.TraceContext`;
        when given, time spent routing the request (validation, surface-term
        translation) and reading the store is credited to its ``route`` and
        ``read`` stages, which is what lets a slow-query log line say *where*
        a request's latency went.
        """
        if trace is None:
            trace = _NULL_TRACE
        operation = str(request.get("op"))
        op = OPS.get(operation)
        if op is None or op.serve is None:
            raise StoreError(f"unknown op {operation!r}; expected one of {', '.join(OPERATIONS)}")
        surface, args = op.args_for(request)
        parsed: List[Any] = []
        if args or op.needs_extra_store:
            with trace.stage("route"):
                if op.needs_extra_store and self.extra_store is None:
                    raise StoreError(
                        "no comparison store mounted; start the server with "
                        f"--extra-store to enable {operation!r}"
                    )
                for arg in args:
                    if arg.parse is not None:
                        default = None if arg.default is _REQUIRED else arg.default
                        parsed.append(arg.parse(request.get(arg.field, default), operation, self.store))
                if op.check is not None:
                    op.check(*parsed)
        if op.access is None:
            return op.serve(self, surface, *parsed)
        with trace.stage("read"):
            return op.serve(self, surface, *parsed)

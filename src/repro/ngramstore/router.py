"""Distributed serving topologies over the unified :class:`StoreAPI`.

The batch job's output is immutable and globally range-partitioned —
exactly the artifact distributed read-only serving wants.  Because every
replica of a store directory is byte-identical, replicas are trivially
consistent; because the manifest records the partition boundary keys,
those boundaries are natural shard keys.  This module turns both facts
into topologies, each one itself a :class:`StoreAPI`:

* :class:`ShardView` — the *server-side* half of range sharding: wraps an
  open :class:`~repro.ngramstore.reader.NGramStore` and serves only the
  slice of its partitions one shard owns, so N servers over the same
  store directory cover it disjointly.
* :class:`ReplicaPool` — the *client-side* half of replication: fans
  requests round-robin over N identical servers and fails over on
  connection errors, so read throughput scales with the replica count.
* :class:`ShardRouter` — the *client-side* half of sharding: discovers
  each shard's key range from its ``stats()``, routes ``get``/``prefix``
  to the owning shard, and merges ``top_k`` across shards with the same
  :class:`~repro.ngramstore.table.TopKAccumulator` the local store uses.

Because every topology implements the same contract, they compose: a
``ShardRouter`` over ``ReplicaPool`` entries is a replicated, sharded
deployment with no new code.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import StoreConnectionError, StoreError
from repro.ngramstore.api import (
    DEFAULT_COMPLETE_K,
    OPS,
    Completion,
    NGramRecord,
    Record,
    StoreAPI,
    validate_complete_k,
    validate_prefix_limit,
)
from repro.ngramstore.reader import NGramStore
from repro.ngramstore.table import TopKAccumulator, validate_top_k
from repro.util.metrics import MetricsRegistry
from repro.util.timer import Stopwatch


def shard_partition_range(num_partitions: int, shard_index: int, num_shards: int) -> Tuple[int, int]:
    """The contiguous partition slice ``[first, last)`` a shard owns.

    The classic balanced split: shard ``i`` of ``N`` owns partitions
    ``[i*P//N, (i+1)*P//N)``.  Every partition is owned by exactly one
    shard; when ``N > P`` the surplus shards own an empty slice (and serve
    nothing, which the router handles).
    """
    if num_shards < 1:
        raise StoreError(f"num_shards must be >= 1, got {num_shards}")
    if not 0 <= shard_index < num_shards:
        raise StoreError(
            f"shard_index must be in [0, {num_shards}), got {shard_index}"
        )
    first = shard_index * num_partitions // num_shards
    last = (shard_index + 1) * num_partitions // num_shards
    return first, last


class ShardView(StoreAPI):
    """One shard's slice of a store: a ``StoreAPI`` over owned partitions.

    Wraps an open :class:`NGramStore` and restricts every query to the
    partitions ``[first, last)`` of :func:`shard_partition_range`.  The
    owned key range follows from the manifest boundaries: partition ``a``
    starts at ``boundaries[a-1]`` (unbounded below for ``a == 0``) and
    partition ``b-1`` ends before ``boundaries[b-1]`` (unbounded above
    when the slice reaches the last partition).  Point lookups outside
    the range miss without touching disk; scans are clamped to the range;
    frequency top-k runs the block-skipping accumulator over the owned
    partitions only.  The vocabulary is the full store's — the dictionary
    is store-global, not per-shard.
    """

    def __init__(self, store: NGramStore, shard_index: int, num_shards: int) -> None:
        self.store = store
        self.shard_index = shard_index
        self.num_shards = num_shards
        self.first_partition, self.last_partition = shard_partition_range(
            store.num_partitions, shard_index, num_shards
        )
        boundaries = store.boundaries
        # Lower bound (inclusive): the boundary that starts our first
        # partition; upper bound (exclusive): the boundary that starts the
        # partition after our last.  None means unbounded on that side.
        self.lower: Optional[Tuple] = (
            boundaries[self.first_partition - 1] if self.first_partition > 0 else None
        )
        self.upper: Optional[Tuple] = (
            boundaries[self.last_partition - 1]
            if self.last_partition < store.num_partitions
            else None
        )

    # ----------------------------------------------------------- properties
    @property
    def is_empty(self) -> bool:
        """True when this shard owns no partitions (more shards than partitions)."""
        return self.first_partition >= self.last_partition

    @property
    def num_partitions(self) -> int:
        """Owned partitions only (what this shard actually serves)."""
        return self.last_partition - self.first_partition

    @property
    def num_records(self) -> int:
        """Records in the owned partitions only."""
        partitions = self.store.manifest["partitions"]
        return sum(
            partitions[index]["num_records"]
            for index in range(self.first_partition, self.last_partition)
        )

    @property
    def cache(self) -> Any:
        return self.store.cache

    @property
    def manifest(self) -> Dict[str, Any]:
        return self.store.manifest

    @property
    def vocabulary(self) -> Any:
        return self.store.vocabulary

    def cache_stats(self) -> Any:
        return self.store.cache_stats()

    def io_stats(self) -> Dict[str, Any]:
        """The wrapped store's I/O counters (reads are store-wide, not per-shard)."""
        return self.store.io_stats()

    def _in_range(self, key: Tuple) -> bool:
        if self.is_empty:
            return False
        if self.lower is not None and key < self.lower:
            return False
        if self.upper is not None and not key < self.upper:
            return False
        return True

    # ------------------------------------------------------------- queries
    def get(self, ngram: Any, default: Any = None) -> Any:
        key = tuple(ngram)
        if not self._in_range(key):
            return default
        return self.store.get(key, default)

    def scan(self, start: Any = None, stop: Any = None) -> Iterator[Record]:
        """The store's scan clamped to the shard's key range."""
        if self.is_empty:
            return iter(())
        start_key = None if start is None else tuple(start)
        stop_key = None if stop is None else tuple(stop)
        if self.lower is not None and (start_key is None or start_key < self.lower):
            start_key = self.lower
        if self.upper is not None and (stop_key is None or self.upper < stop_key):
            stop_key = self.upper
        return self.store.scan(start=start_key, stop=stop_key)

    def top_k_into(self, accumulator: TopKAccumulator) -> None:
        """The block-skipping top-k pass over the shard's own partitions."""
        self.store.top_k_into(accumulator, self.first_partition, self.last_partition)

    def stats(self) -> Dict[str, Any]:
        """The store's stats plus this shard's range descriptor.

        ``num_records`` counts the *owned* partitions only, so a routed
        deployment's per-shard stats sum to the store total.  The
        ``shard`` descriptor is what :class:`ShardRouter` uses to build
        its routing table, so it carries the key bounds explicitly.
        """
        stats = self.store.stats()
        stats["num_partitions"] = self.num_partitions
        stats["num_records"] = self.num_records
        stats["shard"] = {
            "index": self.shard_index,
            "num_shards": self.num_shards,
            "first_partition": self.first_partition,
            "last_partition": self.last_partition,
            "lower": None if self.lower is None else list(self.lower),
            "upper": None if self.upper is None else list(self.upper),
            "empty": self.is_empty,
        }
        return stats

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        self.store.close()


class ReplicaPool(StoreAPI):
    """Round-robin over N clients serving *identical* stores, with failover.

    Any :class:`StoreAPI` clients work (socket, HTTP, even nested
    routers).  Each call goes to the next replica in rotation; when a
    replica answers with a connection-level failure
    (:class:`StoreConnectionError` or a raw ``OSError``), the pool moves
    on to the next one — safe because every operation is an idempotent
    read and every replica serves the same immutable store.  Application
    errors (a :class:`StoreError` the server answered) propagate
    immediately: every replica would answer them identically, so retrying
    elsewhere only hides the caller's bug.

    A replica that fails is *quarantined*: benched for
    ``quarantine_base * 2**(consecutive_failures - 1)`` seconds (capped
    at ``quarantine_cap``), so a down server stops costing every rotation
    a connect attempt and is re-probed at exponentially growing
    intervals.  When every replica is benched the pool falls back to the
    full rotation — serving through a possibly-recovered replica beats
    failing fast while any hope remains.  A success clears the replica's
    failure count.  ``clock`` is injectable for tests.

    The rotation cursor and quarantine state are lock-guarded, but true
    thread-safety also requires thread-safe member clients (socket
    clients are not); the intended concurrent pattern is one pool of
    per-thread clients per thread, mirroring plain ``StoreClient`` usage.
    """

    def __init__(
        self,
        clients: Sequence[StoreAPI],
        quarantine_base: float = 0.25,
        quarantine_cap: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not clients:
            raise StoreError("ReplicaPool needs at least one client")
        if quarantine_base < 0 or quarantine_cap < 0:
            raise StoreError("quarantine_base and quarantine_cap must be >= 0")
        self.clients = list(clients)
        self.quarantine_base = quarantine_base
        self.quarantine_cap = quarantine_cap
        self._clock = clock
        self._failures = [0] * len(self.clients)
        self._benched_until = [0.0] * len(self.clients)
        self._cursor = 0
        self._lock = threading.Lock()
        # Quarantine events are operational signal (a replica flapping in
        # and out of the bench is a deployment problem no single request
        # surfaces), so they land on a metrics registry — a private one
        # unless the deployment wires a shared one in.
        self.metrics_registry = registry if registry is not None else MetricsRegistry()
        self._quarantines = self.metrics_registry.counter(
            "ngramstore_replica_quarantines_total",
            "Times a replica was benched after a connection failure",
            labels=("replica",),
        )
        self._recoveries = self.metrics_registry.counter(
            "ngramstore_replica_recoveries_total",
            "Times a benched replica answered again and was unbenched",
            labels=("replica",),
        )
        self._exhausted = self.metrics_registry.counter(
            "ngramstore_replica_pool_exhausted_total",
            "Requests that failed on every replica",
        )
        self.metrics_registry.gauge(
            "ngramstore_replica_benched", "Replicas currently quarantined"
        ).set_callback(lambda: float(len(self.benched_replicas())))

    def _rotation(self) -> List[int]:
        """Replica indexes in call order for one request.

        Benched replicas are skipped — unless *every* replica is benched,
        in which case the full rotation is the only option left.
        """
        with self._lock:
            start = self._cursor
            self._cursor = (self._cursor + 1) % len(self.clients)
            now = self._clock()
            order = [
                (start + offset) % len(self.clients)
                for offset in range(len(self.clients))
            ]
            healthy = [index for index in order if self._benched_until[index] <= now]
        return healthy if healthy else order

    def _bench(self, index: int) -> None:
        with self._lock:
            self._failures[index] += 1
            delay = min(
                self.quarantine_cap,
                self.quarantine_base * (2 ** (self._failures[index] - 1)),
            )
            self._benched_until[index] = self._clock() + delay
        self._quarantines.inc(replica=index)

    def _mark_healthy(self, index: int) -> None:
        with self._lock:
            recovered = self._failures[index] > 0
            self._failures[index] = 0
            self._benched_until[index] = 0.0
        if recovered:
            self._recoveries.inc(replica=index)

    def benched_replicas(self) -> List[int]:
        """Indexes currently quarantined (for monitoring and tests)."""
        with self._lock:
            now = self._clock()
            return [
                index
                for index in range(len(self.clients))
                if self._benched_until[index] > now
            ]

    def _invoke(self, method: str, *args: Any, **kwargs: Any) -> Any:
        errors: List[str] = []
        for index in self._rotation():
            try:
                result = getattr(self.clients[index], method)(*args, **kwargs)
            except (StoreConnectionError, ConnectionError, OSError) as error:
                self._bench(index)
                errors.append(f"{error}")
            else:
                self._mark_healthy(index)
                return result
        self._exhausted.inc()
        raise StoreConnectionError(
            f"all {len(self.clients)} replicas failed for {method}: "
            + "; ".join(errors)
        )

    def prefix(self, tokens: Any, limit: Optional[int] = None) -> List[Record]:
        return list(self._invoke("prefix", tokens, limit=limit))

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except (StoreError, OSError):
                pass


def _replicated(method: str) -> Callable[..., Any]:
    def call(self: ReplicaPool, *args: Any, **kwargs: Any) -> Any:
        return self._invoke(method, *args, **kwargs)

    call.__name__ = method
    call.__doc__ = f"``{method}`` answered by the next healthy replica."
    return call


# Every operation is an idempotent read of identical stores, so each client
# method of the op table is the same delegation; only ``prefix`` (above)
# differs, by materialising.
for _method in (name for op in OPS.values() for name in op.methods):
    if _method not in vars(ReplicaPool):
        setattr(ReplicaPool, _method, _replicated(_method))


#: ``compare``'s answer for a key that exists in neither store.
_ABSENT_COMPARISON = {"found_a": False, "value_a": None, "found_b": False, "value_b": None}


class _ShardEntry:
    """One routed shard: its client and the key range it owns."""

    __slots__ = ("client", "index", "lower", "upper", "empty")

    def __init__(self, client: StoreAPI, descriptor: Dict[str, Any]) -> None:
        self.client = client
        self.index = descriptor["index"]
        self.lower = None if descriptor["lower"] is None else tuple(descriptor["lower"])
        self.upper = None if descriptor["upper"] is None else tuple(descriptor["upper"])
        self.empty = bool(descriptor.get("empty"))

    def owns(self, key: Tuple) -> bool:
        if self.empty:
            return False
        if self.lower is not None and key < self.lower:
            return False
        if self.upper is not None and not key < self.upper:
            return False
        return True

    def may_contain_prefix(self, prefix: Tuple) -> bool:
        """Whether any key starting with ``prefix`` can live in this range.

        Keys with prefix ``p`` form the interval ``[p, p+inf)`` in tuple
        order, so a shard is irrelevant when its whole range ends at or
        before ``p`` (``upper <= p``) or starts above every ``p``-prefixed
        key (``lower[:len(p)] > p``).
        """
        if self.empty:
            return False
        if self.upper is not None and not prefix < self.upper:
            return False
        if self.lower is not None and self.lower[: len(prefix)] > prefix:
            return False
        return True


class ShardRouter(StoreAPI):
    """Routes queries across range-sharded servers; itself a ``StoreAPI``.

    Built from one client per shard server (each serving a
    :class:`ShardView`); the constructor reads every client's ``stats()``
    shard descriptor, orders the shards by index, and validates that
    together they cover the whole key space with no gaps — a mis-deployed
    topology fails at construction, not at the first unlucky query.

    Routing: ``get`` goes to the one owning shard; ``multi_get`` groups
    keys per shard into one batched call each; ``prefix`` fans out to the
    shards whose ranges can intersect the prefix interval, in shard
    order, so concatenation preserves global key order; frequency
    ``top_k`` asks every shard for its local top-k and merges through the
    same :class:`TopKAccumulator` the local store uses — each shard's k
    candidates are a superset of its contribution to the global k, so the
    merge is exact.

    Multi-shard operations (``prefix``, ``top_k``, ``multi_get``) query
    the relevant shards *in parallel* from a lazily-created thread pool,
    so wall-clock latency is the slowest shard's, not the sum.  This is
    safe with non-thread-safe member clients because each shard's client
    is only ever driven by one worker at a time; the results are merged
    in deterministic shard order, so answers are identical to the
    sequential ones.
    """

    def __init__(
        self,
        clients: Sequence[StoreAPI],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not clients:
            raise StoreError("ShardRouter needs at least one shard client")
        entries = []
        shard_counts = set()
        for client in clients:
            stats = client.stats()
            descriptor = stats.get("shard")
            if not isinstance(descriptor, dict):
                raise StoreError(
                    "shard server did not report a shard descriptor; serve the "
                    "store with --num-shards/--shard-index (a plain server is "
                    "not a shard)"
                )
            entries.append(_ShardEntry(client, descriptor))
            shard_counts.add(descriptor["num_shards"])
        entries.sort(key=lambda entry: entry.index)
        declared = {entry.index for entry in entries}
        num_shards = shard_counts
        if len(num_shards) != 1:
            raise StoreError(
                f"shard servers disagree on num_shards: {sorted(num_shards)}"
            )
        expected = num_shards.pop()
        if declared != set(range(expected)):
            missing = sorted(set(range(expected)) - declared)
            raise StoreError(
                f"incomplete shard topology: {len(entries)} clients for "
                f"{expected} shards (missing indexes {missing})"
            )
        # Non-empty shards must tile the key space: each one's upper bound
        # is the next one's lower bound.
        active = [entry for entry in entries if not entry.empty]
        for left, right in zip(active, active[1:]):
            if left.upper != right.lower:
                raise StoreError(
                    f"shard ranges do not tile: shard {left.index} ends at "
                    f"{left.upper} but shard {right.index} starts at {right.lower}"
                )
        if active:
            if active[0].lower is not None or active[-1].upper is not None:
                raise StoreError(
                    "shard ranges do not cover the key space: first shard must "
                    "be unbounded below and last unbounded above"
                )
        self.shards = entries
        self._active = active
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self.metrics_registry = registry if registry is not None else MetricsRegistry()
        self._router_requests = self.metrics_registry.counter(
            "ngramstore_router_requests_total",
            "Requests routed across shards, by operation",
            labels=("op",),
        )
        self._fanout_seconds = self.metrics_registry.histogram(
            "ngramstore_router_fanout_seconds",
            "Wallclock of one routed operation's shard fan-out, by operation",
            labels=("op",),
        )
        self._fanout_shards = self.metrics_registry.histogram(
            "ngramstore_router_fanout_shards",
            "Shards queried per routed operation, by operation",
            labels=("op",),
            buckets=tuple(float(2 ** power) for power in range(11)),
        )
        self.metrics_registry.gauge(
            "ngramstore_router_shards", "Shards in the routing table"
        ).set(float(len(entries)))

    # ------------------------------------------------------------ routing
    def _owner(self, key: Tuple) -> Optional[_ShardEntry]:
        for entry in self._active:
            if entry.owns(key):
                return entry
        return None

    def _any_client(self) -> StoreAPI:
        """A client for store-global operations (vocabulary, metadata)."""
        return self.shards[0].client

    def _fan_out(
        self, items: List[Any], call: Callable[[Any], Any], op: str = "fan_out"
    ) -> List[Any]:
        """``[call(item) for item in items]``, but concurrently.

        Results come back in ``items`` order, so merges downstream see the
        same deterministic sequence a sequential loop would produce.  The
        pool is created on first multi-shard query (sized to the shard
        count — each worker drives a different shard's client) and lives
        until :meth:`close`.  Each fan-out's wallclock and width land on
        the router's metrics registry under ``op``.
        """
        watch = Stopwatch()
        try:
            if len(items) <= 1:
                return [call(item) for item in items]
            with self._executor_lock:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=len(self.shards), thread_name_prefix="shard-fanout"
                    )
                executor = self._executor
            return list(executor.map(call, items))
        finally:
            self._router_requests.inc(op=op)
            self._fanout_seconds.observe(watch.elapsed(), op=op)
            self._fanout_shards.observe(float(len(items)), op=op)

    def _ask_owner(
        self, op: str, key: Tuple, absent: Any, call: Callable[[StoreAPI], Any]
    ) -> Any:
        """``call`` on the one shard owning ``key``; ``absent`` when none does."""
        owner = self._owner(key)
        answers = self._fan_out([] if owner is None else [owner.client], call, op=op)
        return answers[0] if answers else absent

    # ------------------------------------------------------------- queries
    def get(self, ngram: Any, default: Any = None) -> Any:
        key = tuple(ngram)
        return self._ask_owner("get", key, default, lambda client: client.get(key, default))

    def multi_get(self, ngrams: Sequence[Any], default: Any = None) -> List[Any]:
        keys = [tuple(ngram) for ngram in ngrams]
        grouped: Dict[int, List[int]] = {}
        for position, key in enumerate(keys):
            owner = self._owner(key)
            if owner is not None:
                grouped.setdefault(owner.index, []).append(position)
        by_index = {entry.index: entry for entry in self.shards}
        results: List[Any] = [default] * len(keys)
        shard_batches = sorted(grouped.items())
        values_per_shard = self._fan_out(
            shard_batches,
            lambda batch: by_index[batch[0]].client.multi_get(
                [keys[position] for position in batch[1]], default
            ),
            op="multi_get",
        )
        for (_, positions), values in zip(shard_batches, values_per_shard):
            for position, value in zip(positions, values):
                results[position] = value
        return results

    def prefix(self, tokens: Any, limit: Optional[int] = None) -> List[Record]:
        validate_prefix_limit(limit)
        prefix = tuple(tokens)
        # Every relevant shard is asked with the caller's full limit in
        # parallel: each shard's capped result is a superset of its
        # contribution to the first `limit` records of the in-order
        # concatenation, so truncating after the merge yields exactly what
        # the sequential remaining-limit loop produced.
        relevant = [
            entry for entry in self._active if entry.may_contain_prefix(prefix)
        ]
        per_shard = self._fan_out(
            relevant,
            lambda entry: list(entry.client.prefix(prefix, limit=limit)),
            op="prefix",
        )
        records: List[Record] = []
        for shard_records in per_shard:
            records.extend(shard_records)
            if limit is not None and len(records) >= limit:
                break
        return records if limit is None else records[:limit]

    def top_k(self, k: int, order: str = "frequency") -> List[Record]:
        validate_top_k(k, order)
        per_shard = self._fan_out(
            list(self._active), lambda entry: entry.client.top_k(k, order), op="top_k"
        )
        if order == "key":
            # Shards are in global key order; the first k of the in-order
            # concatenation are the global first k.
            records: List[Record] = []
            for shard_records in per_shard:
                records.extend(shard_records)
                if len(records) >= k:
                    break
            return records[:k]
        # Exact merge: each shard's local top-k is a superset of its
        # contribution to the global top-k, and the accumulator's total
        # order makes the result independent of offer order.
        accumulator = TopKAccumulator(k)
        for shard_records in per_shard:
            for key, value in shard_records:
                accumulator.offer(key, value)
        return [NGramRecord(key, value) for key, value in accumulator.results()]

    def complete(self, ngram: Any, k: int = DEFAULT_COMPLETE_K) -> List[Completion]:
        """Exact global completions merged from the prefix-relevant shards.

        Every key extending the prefix lives in exactly one shard, so the
        per-shard completion lists carry disjoint tokens and each is a
        superset of its shard's contribution to the global top-k; the
        concatenation re-ranked with the canonical ``(-value, token)``
        tie-break is therefore byte-identical to a single-store answer.
        """
        key = tuple(ngram)
        k = validate_complete_k(k)
        relevant = [
            entry for entry in self._active if entry.may_contain_prefix(key)
        ]
        per_shard = self._fan_out(
            relevant,
            lambda entry: entry.client.complete(key, k),
            op="complete",
        )
        candidates = [
            completion for shard_completions in per_shard
            for completion in shard_completions
        ]
        try:
            candidates.sort(key=lambda item: (-item[1], item[0]))
        except TypeError as exc:
            raise StoreError(
                f"completion values are not orderable across shards: {exc}"
            ) from exc
        return [Completion(token, value) for token, value in candidates[:k]]

    def compare(self, ngram: Any) -> Dict[str, Any]:
        """Point diff/intersect lookup routed to the key's owning shard.

        Shard servers mount the comparison store whole (it is not
        sharded), so the owner answers for both sides; a key no shard owns
        (only possible when every shard is empty) short-circuits to
        all-missing.
        """
        key = tuple(ngram)
        return self._ask_owner(
            "compare", key, dict(_ABSENT_COMPARISON), lambda client: client.compare(key)
        )

    def compare_terms(self, terms: Sequence[str]) -> Dict[str, Any]:
        (key,) = self.translate_terms([tuple(terms)])
        # An unknown surface term is found nowhere, exactly the engine's answer.
        return dict(_ABSENT_COMPARISON) if key is None else self.compare(key)

    def stats(self) -> Dict[str, Any]:
        """Aggregated topology stats: store totals plus per-shard summary."""
        per_shard = [entry.client.stats() for entry in self.shards]
        first = per_shard[0]
        return {
            "store_dir": first["store_dir"],
            "num_records": sum(stats["num_records"] for stats in per_shard),
            "num_partitions": sum(stats["num_partitions"] for stats in per_shard),
            "codec": first["codec"],
            "has_vocabulary": first["has_vocabulary"],
            "metadata": first["metadata"],
            "shards": [stats["shard"] for stats in per_shard],
        }

    def ping(self) -> bool:
        return all(entry.client.ping() for entry in self.shards)

    # ------------------------------------------------------ vocabulary ops
    def translate_terms(self, items: Sequence[Sequence[str]]) -> List[Optional[Tuple]]:
        return self._any_client().translate_terms(items)

    def render_ngrams(self, ngrams: Sequence[Tuple]) -> List[Tuple[str, ...]]:
        return self._any_client().render_ngrams(ngrams)

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
        for entry in self.shards:
            try:
                entry.client.close()
            except (StoreError, OSError):
                pass

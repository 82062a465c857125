"""Serving layer: routing queries over a store's range partitions.

:class:`NGramStore` opens a store directory (manifest + one table per
range partition, plus an optional vocabulary) and is the local, in-process
implementation of the :class:`~repro.ngramstore.api.StoreAPI` kernel —
point lookups, ordered range scans, the block-skipping top-k pass, stats
and the persisted dictionary — routing each query to the partitions that
can answer it via the manifest's boundary keys, exactly the ranges the
build job partitioned by.
Tables open lazily and every table keeps only its LRU block cache in
memory, so serving a store holds ``O(partitions x cache_blocks x block
size)`` bytes regardless of how many n-grams are stored.

:class:`StoreStatistics` adapts a store to the read interface of
:class:`~repro.ngrams.statistics.NGramStatistics`, which is how the
language model and the time-series analyses run on top of a store instead
of a fully-resident dict.
"""

from __future__ import annotations

import heapq
import os
import threading
from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import StoreError
from repro.kvstore.cached import CacheStats
from repro.ngramstore.api import StoreAPI
from repro.ngramstore.build import (
    DICTIONARY_FILENAME,
    RESIDUAL_DIRNAME,
    load_manifest,
    manifest_boundaries,
)
from repro.ngramstore.table import (
    DEFAULT_CACHE_BLOCKS,
    BlockCache,
    Table,
    TopKAccumulator,
    top_k_records,
)

Record = Tuple[Any, Any]

_MISSING = object()


class NGramStore(StoreAPI):
    """A multi-partition, on-disk n-gram store opened for querying.

    Safe for concurrent readers: lazy table opening and the lazy vocabulary
    load are guarded by a lock, and the tables themselves serialise their
    shared-handle I/O (see :class:`~repro.ngramstore.table.Table`).  Pass
    ``cache`` to give every partition (or several stores — e.g. a serving
    process) one process-wide LRU block cache instead of a private
    ``cache_blocks``-entry cache per table.
    """

    def __init__(
        self,
        store_dir: str,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        cache: Optional[BlockCache] = None,
        use_mmap: bool = True,
    ) -> None:
        self.store_dir = store_dir
        self.manifest = load_manifest(store_dir)
        self.boundaries = manifest_boundaries(self.manifest)
        self.cache_blocks = cache_blocks
        self.cache = cache
        self.use_mmap = use_mmap
        self._tables: List[Optional[Table]] = [None] * self.manifest["num_partitions"]
        self._vocabulary: Any = None
        self._residual: Optional["NGramStore"] = None
        self._lock = threading.Lock()
        self._closed = False

    @classmethod
    def open(
        cls,
        store_dir: str,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        cache: Optional[BlockCache] = None,
        use_mmap: bool = True,
    ) -> "NGramStore":
        """Open a store directory written by :func:`repro.ngramstore.build.build_store`."""
        return cls(store_dir, cache_blocks=cache_blocks, cache=cache, use_mmap=use_mmap)

    # ----------------------------------------------------------- properties
    @property
    def num_partitions(self) -> int:
        return self.manifest["num_partitions"]

    @property
    def num_records(self) -> int:
        return self.manifest["num_records"]

    @property
    def codec_name(self) -> str:
        return self.manifest["codec"]

    @property
    def metadata(self) -> Dict[str, Any]:
        return self.manifest["metadata"]

    @property
    def min_frequency(self) -> int:
        """The store's serving threshold τ (1 when never stamped)."""
        value = self.metadata.get("min_frequency", 1)
        if isinstance(value, bool) or not isinstance(value, int):
            return 1
        return value

    @property
    def has_residual(self) -> bool:
        """True when the manifest records a residual sidecar table."""
        return "residual" in self.manifest

    @property
    def residual(self) -> Optional["NGramStore"]:
        """The residual sidecar store (counts in ``[1, τ)``), opened lazily.

        ``None`` for stores without one (τ=1 builds, or legacy τ>1 stores
        that predate residuals).  The sidecar shares this store's block
        cache when one was passed, and is closed with the parent.
        """
        if not self.has_residual:
            return None
        if self._residual is None:
            with self._lock:
                if self._residual is None:
                    entry = self.manifest["residual"]
                    path = os.path.join(
                        self.store_dir, entry.get("directory", RESIDUAL_DIRNAME)
                    )
                    self._residual = NGramStore(
                        path,
                        cache_blocks=self.cache_blocks,
                        cache=self.cache,
                        use_mmap=self.use_mmap,
                    )
        return self._residual

    @property
    def vocabulary(self) -> Optional[Any]:
        """The persisted vocabulary, if the build included one (lazy)."""
        if self._vocabulary is None and self.manifest.get("has_vocabulary"):
            with self._lock:
                if self._vocabulary is None:
                    from repro.corpus.vocabulary import Vocabulary

                    path = os.path.join(self.store_dir, DICTIONARY_FILENAME)
                    with open(path, "r", encoding="utf-8") as handle:
                        self._vocabulary = Vocabulary.from_lines(handle)
        return self._vocabulary

    def cache_stats(self) -> CacheStats:
        """Block-cache hit/miss/eviction totals over every open partition."""
        if self.cache is not None:
            return self.cache.stats_snapshot()
        total = CacheStats()
        for table in self._tables:
            if table is not None:
                total.hits += table.cache_stats.hits
                total.misses += table.cache_stats.misses
                total.evictions += table.cache_stats.evictions
        return total

    def io_stats(self) -> Dict[str, Any]:
        """Read-path counters over every open partition.

        ``blocks_decoded`` counts data blocks actually read and decoded
        (cache hits don't decode); ``bloom_rejections`` counts point misses
        answered by a block's Bloom filter without touching the block;
        ``blocks_checksum_failed`` counts blocks whose stored CRC32 did not
        match their bytes (each such read also raised ``StoreError``);
        ``mmap_partitions`` counts partitions served by zero-copy mmap
        slices; ``decode_seconds`` is cumulative wallclock spent decoding
        blocks, which request tracing uses to split read latency into
        block-read vs decode stages.  Benchmarks assert against these —
        e.g. a Bloom-filtered miss workload must leave ``blocks_decoded``
        untouched.
        """
        totals = {
            "blocks_decoded": 0,
            "bloom_rejections": 0,
            "blocks_checksum_failed": 0,
            "mmap_partitions": 0,
            "decode_seconds": 0.0,
        }
        for table in self._tables:
            if table is not None:
                totals["blocks_decoded"] += table.blocks_decoded
                totals["bloom_rejections"] += table.bloom_rejections
                totals["blocks_checksum_failed"] += table.blocks_checksum_failed
                totals["mmap_partitions"] += 1 if table.mmap_active else 0
                totals["decode_seconds"] += table.decode_seconds
        return totals

    # ------------------------------------------------------------ internals
    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"store {self.store_dir!r} is closed")

    def _table(self, index: int) -> Table:
        table = self._tables[index]
        if table is None:
            # Double-checked under the lock: concurrent first touches of a
            # partition must yield one Table (one handle, one cache), not a
            # racing pair where one leaks unclosed.
            with self._lock:
                table = self._tables[index]
                if table is None:
                    filename = self.manifest["partitions"][index]["file"]
                    table = Table(
                        os.path.join(self.store_dir, filename),
                        cache_blocks=self.cache_blocks,
                        cache=self.cache,
                        use_mmap=self.use_mmap,
                    )
                    self._tables[index] = table
        return table

    def _partition_for(self, key: Tuple) -> int:
        return bisect_right(self.boundaries, key)

    # ------------------------------------------------------------- queries
    def get(self, ngram: Any, default: Any = None) -> Any:
        """Point lookup, routed to the one partition owning the key's range."""
        self._check_open()
        if self.num_partitions == 0:
            return default
        key = tuple(ngram)
        return self._table(self._partition_for(key)).get(key, default)

    def scan(self, start: Any = None, stop: Any = None) -> Iterator[Record]:
        """Stream records with ``start <= key < stop`` across partitions.

        Range partitioning makes the global key order the concatenation of
        the partitions' orders, so this chains per-partition scans, opening
        only the partitions the range touches.
        """
        self._check_open()
        if self.num_partitions == 0:
            return
        start_key = None if start is None else tuple(start)
        stop_key = None if stop is None else tuple(stop)
        first = 0 if start_key is None else self._partition_for(start_key)
        for index in range(first, self.num_partitions):
            if stop_key is not None and index > 0 and index <= len(self.boundaries):
                # Partition index owns keys >= boundaries[index - 1]; once the
                # stop bound falls at or below that, no later partition matters.
                if not self.boundaries[index - 1] < stop_key:
                    return
            yield from self._table(index).scan(start=start_key, stop=stop_key)

    def top_k_into(
        self,
        accumulator: TopKAccumulator,
        first_partition: int = 0,
        last_partition: Optional[int] = None,
    ) -> None:
        """Offer a partition range's candidates to a caller-owned top-k heap.

        One heap is shared across every partition, so blocks whose persisted
        max-value summary cannot beat the current heap floor are skipped
        unread (the accumulator's ``blocks_scanned``/``blocks_skipped``
        count those decisions).  A :class:`~repro.ngramstore.router.ShardView`
        restricts the pass to the partitions its shard owns
        (``[first_partition, last_partition)``; the default covers the
        whole store).
        """
        self._check_open()
        stop = self.num_partitions if last_partition is None else last_partition
        for index in range(first_partition, stop):
            self._table(index).top_k_into(accumulator)

    def block_first_keys(self) -> List[Tuple]:
        """Every block's first key across all partitions, in global key order.

        Read from the block indexes alone (no data blocks are decoded): one
        key per block, i.e. a records-proportional sample of the store's
        key distribution — what the store merge uses to plan boundaries.
        """
        self._check_open()
        keys: List[Tuple] = []
        for index in range(self.num_partitions):
            keys.extend(self._table(index).block_first_keys())
        return keys

    def exact_items(self) -> Iterator[Record]:
        """Stream the exact full count table: main + residual, in key order.

        A τ>1 store's main table alone is a *filtered* view; merged with
        its residual sidecar (key sets are disjoint by construction) the
        stream is exactly the τ=1 count table — the input an exact store
        merge needs.  Degenerates to :meth:`items` when no residual exists.
        """
        residual = self.residual
        if residual is None:
            return self.items()
        return heapq.merge(self.items(), residual.items(), key=lambda record: record[0])

    def stats(self) -> Dict[str, Any]:
        """Store metadata in the canonical ``StoreAPI`` shape.

        The same dict every remote implementation returns for ``stats``,
        which is what makes the conformance suite's byte-identity check
        possible: servers forward this verbatim.
        """
        self._check_open()
        stats = {
            "store_dir": self.store_dir,
            "num_records": self.num_records,
            "num_partitions": self.num_partitions,
            "codec": self.codec_name,
            "has_vocabulary": bool(self.manifest.get("has_vocabulary")),
            "metadata": self.manifest.get("metadata", {}),
        }
        if self.has_residual:
            stats["residual"] = dict(self.manifest["residual"])
        return stats

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for table in self._tables:
            if table is not None:
                table.close()
        self._tables = [None] * self.manifest["num_partitions"]
        if self._residual is not None:
            self._residual.close()
            self._residual = None


class StoreStatistics:
    """Read-only :class:`~repro.ngrams.statistics.NGramStatistics` facade.

    Implements the lookup/iteration surface consumers use (``frequency``,
    ``items``, iteration, membership, ``top``) by delegating to the store's
    query engine — every access streams or seeks, nothing is materialised.
    Mutation and dict-returning conversions are deliberately absent: a
    store is immutable, and materialising it would defeat the point.
    """

    def __init__(self, store: NGramStore) -> None:
        self.store = store

    def frequency(self, ngram: Any) -> int:
        return self.store.frequency(tuple(ngram))

    def __getitem__(self, ngram: Any) -> int:
        key = tuple(ngram)
        value = self.store.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __contains__(self, ngram: object) -> bool:
        return ngram in self.store

    def __len__(self) -> int:
        return len(self.store)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.store)

    def items(self) -> Iterator[Record]:
        return self.store.items()

    def top(self, k: int, length: Optional[int] = None) -> List[Record]:
        """The ``k`` most frequent n-grams, optionally of one exact length."""
        records = self.store.items()
        if length is not None:
            records = (record for record in records if len(record[0]) == length)
        return top_k_records(records, k, "frequency")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"StoreStatistics({len(self.store)} n-grams, {self.store.store_dir!r})"

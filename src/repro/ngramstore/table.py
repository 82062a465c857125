"""Writing and querying one sorted, block-compressed table file.

:class:`TableWriter` streams already-sorted ``(ngram, value)`` records into
the immutable format of :mod:`repro.ngramstore.format`, enforcing the
sorted invariant (strictly increasing keys) as it writes — the property
every read path relies on.  :class:`Table` opens a finished file and serves
point lookups, range/prefix scans and top-k queries with seek-based block
reads: a query decodes at most the blocks it touches, and an LRU block
cache (:class:`BlockCache`, the :mod:`repro.kvstore.cached` policy applied
to blocks instead of keys) keeps the working set bounded by
``block size x cache capacity`` no matter how large the table is.
"""

from __future__ import annotations

import heapq
import mmap
import os
import threading
import time
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import StoreError
from repro.kvstore.cached import CacheStats
from repro.mapreduce.serialization import record_size
from repro.ngramstore.format import (
    FORMAT_VERSION,
    MAGIC,
    BlockHandle,
    block_checksum,
    decode_block,
    decode_block_view,
    encode_block,
    read_footer,
    read_index,
    write_footer,
    write_index,
)
from repro.util.bloom import DEFAULT_BITS_PER_KEY, BloomFilter
from repro.util.codecs import get_codec

Record = Tuple[Any, Any]

#: Records per data block unless the writer is told otherwise.  Blocks are
#: the unit of compression *and* of random-read I/O, so the value trades
#: point-lookup cost (decode one block) against compression ratio.
DEFAULT_RECORDS_PER_BLOCK = 1024

#: Decoded blocks kept by a table's LRU cache unless overridden.
DEFAULT_CACHE_BLOCKS = 32

#: Orders accepted by :meth:`Table.top_k`.
TOP_K_ORDERS = ("frequency", "key")


def prefix_records(scan, prefix: Tuple) -> Iterator[Record]:
    """Restrict a scan to keys starting with ``prefix`` (tuple keys).

    ``scan`` is a ``scan(start=..., stop=...)`` callable.  Keys sharing a
    prefix are contiguous under tuple ordering, so this is one bounded
    range scan starting at ``prefix`` itself, stopped at the first
    non-matching key.  Shared by the single-table and multi-partition
    query paths so prefix semantics cannot diverge.
    """
    prefix = tuple(prefix)
    if not prefix:
        yield from scan()
        return
    length = len(prefix)
    for key, value in scan(start=prefix):
        if tuple(key[:length]) != prefix:
            return
        yield key, value


def validate_top_k(k: int, order: str) -> None:
    """Reject invalid top-k parameters (shared by every top-k entry point)."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise StoreError(f"top_k k must be an integer, got {k!r}")
    if order not in TOP_K_ORDERS:
        raise StoreError(f"top_k order must be one of {', '.join(TOP_K_ORDERS)}, got {order!r}")
    if k < 1:
        raise StoreError(f"top_k k must be >= 1, got {k}")


def _frequency_type_error(exc: TypeError) -> StoreError:
    # Stores may hold non-numeric values (e.g. time-series dicts), which
    # have no frequency ranking — fail as a store error, not a bare
    # TypeError from deep inside a heap comparison.
    return StoreError(
        f"top_k by frequency needs numeric values: {exc}; "
        "use order='key' for stores with non-numeric values"
    )


def top_k_records(records: Iterator[Record], k: int, order: str) -> List[Record]:
    """The ``k`` greatest records of a stream under ``order``, using O(k) memory.

    ``"frequency"`` ranks by descending value with the key as tie-breaker
    (the order of :meth:`repro.ngrams.statistics.NGramStatistics.top`);
    ``"key"`` ranks by ascending key — for a sorted stream that is simply
    the first ``k`` records, but the stream is not required to be sorted.
    """
    validate_top_k(k, order)
    if order == "frequency":
        try:
            return heapq.nsmallest(k, records, key=lambda record: (-record[1], record[0]))
        except TypeError as exc:
            raise _frequency_type_error(exc) from exc
    return heapq.nsmallest(k, records, key=lambda record: record[0])


class _ReverseKey:
    """Wraps a key so heap ordering prefers the *smaller* key on value ties."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_ReverseKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReverseKey) and other.key == self.key


class TopKAccumulator:
    """O(k) heap of the best records by ``(-value, key)``, shared across tables.

    The heap root is always the *worst* retained record, so its sort key is
    the floor a candidate must beat.  :meth:`admissible` turns a block's
    persisted max-value summary into a skip decision: every record of the
    block has ``value <= max_value`` and ``key >= first_key``, hence a sort
    key of at least ``(-max_value, first_key)`` — if even that bound cannot
    beat the floor, the block need not be read at all.  ``blocks_scanned``
    and ``blocks_skipped`` count those decisions for benchmarks and tests.

    Results are identical to a full scan: table keys are unique, so the
    composite sort order is total and the top-k set is unambiguous.
    """

    __slots__ = ("k", "_heap", "blocks_scanned", "blocks_skipped")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise StoreError(f"top_k k must be >= 1, got {k}")
        self.k = k
        self._heap: List[Tuple[Any, _ReverseKey]] = []
        self.blocks_scanned = 0
        self.blocks_skipped = 0

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    def admissible(self, max_value: Any, first_key: Any) -> bool:
        """Can a block bounded by ``max_value``/``first_key`` still contribute?"""
        if not self.full or max_value is None:
            return True
        worst_value, worst_key = self._heap[0][0], self._heap[0][1].key
        return (-max_value, first_key) < (-worst_value, worst_key)

    def offer(self, key: Any, value: Any) -> None:
        entry = (value, _ReverseKey(key))
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif self._heap[0] < entry:
            heapq.heapreplace(self._heap, entry)

    def results(self) -> List[Record]:
        """The retained records, best first (descending value, ascending key)."""
        ordered = sorted(self._heap, key=lambda entry: (-entry[0], entry[1].key))
        return [(entry[1].key, entry[0]) for entry in ordered]


#: What the cache holds per block: the decoded keys (for bisection) and the
#: full records, decoded once — point lookups on cache hits are then a pure
#: O(log block) bisect with no per-lookup allocation.
DecodedBlock = Tuple[List[Any], List[Record]]


class BlockCache:
    """Thread-safe LRU cache of decoded blocks.

    Keys are arbitrary hashable block identities — a single table uses its
    block ordinals, while a cache *shared* across tables (one process-wide
    cache for a whole store, or a server's stores) namespaces them by table
    path.  All bookkeeping, including the hit/miss/eviction counters,
    happens under one lock so concurrent readers never corrupt the LRU
    order or the stats.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_BLOCKS) -> None:
        if capacity < 1:
            raise StoreError(f"block cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._blocks: "OrderedDict[Any, DecodedBlock]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, block_key: Any) -> Optional[DecodedBlock]:
        with self._lock:
            if block_key in self._blocks:
                self.stats.hits += 1
                self._blocks.move_to_end(block_key)
                return self._blocks[block_key]
            self.stats.misses += 1
            return None

    def put(self, block_key: Any, block: DecodedBlock) -> None:
        with self._lock:
            if block_key in self._blocks:
                self._blocks.move_to_end(block_key)
            self._blocks[block_key] = block
            while len(self._blocks) > self.capacity:
                self._blocks.popitem(last=False)
                self.stats.evictions += 1

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the counters (the live object keeps mutating)."""
        with self._lock:
            return CacheStats(
                hits=self.stats.hits,
                misses=self.stats.misses,
                evictions=self.stats.evictions,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()


def _block_max_value(records: List[Record]) -> Any:
    """The block's largest value, or None when values are not plain numbers.

    Only ``int``/``float`` summaries are persisted — anything else (dicts,
    bools, mixed types) yields ``None``, which the top-k reader treats as
    "unknown, never skip".
    """
    try:
        largest = max(value for _, value in records)
    except TypeError:
        return None
    if isinstance(largest, bool) or not isinstance(largest, (int, float)):
        return None
    return largest


class TableWriter:
    """Streams sorted records into one immutable table file."""

    def __init__(
        self,
        path: str,
        codec: str = "none",
        records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
        metadata: Optional[Dict[str, Any]] = None,
        bloom_bits_per_key: int = DEFAULT_BITS_PER_KEY,
    ) -> None:
        if records_per_block < 1:
            raise StoreError(f"records_per_block must be >= 1, got {records_per_block}")
        if bloom_bits_per_key < 0:
            raise StoreError(
                f"bloom_bits_per_key must be >= 0 (0 disables), got {bloom_bits_per_key}"
            )
        self.path = path
        self.codec_name = codec
        self._codec = get_codec(codec)
        self.records_per_block = records_per_block
        self.bloom_bits_per_key = bloom_bits_per_key
        self.metadata = dict(metadata) if metadata else {}
        self.num_records = 0
        self.serialized_bytes = 0
        self._buffer: List[Record] = []
        self._index: List[BlockHandle] = []
        self._last_key: Any = None
        self._handle = open(path, "wb")
        self._handle.write(MAGIC)
        self._closed = False

    # ----------------------------------------------------------- internals
    def _flush_block(self) -> None:
        if not self._buffer:
            return
        offset = self._handle.tell()
        payload = encode_block(self._buffer, self._codec)
        self._handle.write(payload)
        bloom = None
        if self.bloom_bits_per_key:
            bloom = BloomFilter.build(
                [key for key, _ in self._buffer], self.bloom_bits_per_key
            ).to_spec()
        self._index.append(
            BlockHandle(
                first_key=self._buffer[0][0],
                last_key=self._buffer[-1][0],
                offset=offset,
                length=len(payload),
                num_records=len(self._buffer),
                max_value=_block_max_value(self._buffer),
                bloom=bloom,
                checksum=block_checksum(payload),
            )
        )
        self._buffer = []

    # ------------------------------------------------------------ interface
    def append(self, key: Any, value: Any) -> None:
        """Append one record; keys must arrive in strictly increasing order."""
        if self._closed:
            raise StoreError("cannot append to a closed table writer")
        if self._last_key is not None and not self._last_key < key:
            raise StoreError(
                f"unsorted write: key {key!r} does not sort after {self._last_key!r} "
                "(table keys must be strictly increasing)"
            )
        self._buffer.append((key, value))
        self._last_key = key
        self.num_records += 1
        self.serialized_bytes += record_size(key, value)
        if len(self._buffer) >= self.records_per_block:
            self._flush_block()

    def extend(self, records: Any) -> None:
        """Append a stream of sorted records."""
        for key, value in records:
            self.append(key, value)

    def close(self) -> str:
        """Seal the table (index + footer) and return its path."""
        if self._closed:
            return self.path
        self._flush_block()
        index_offset, index_length = write_index(self._handle, self._index)
        footer = {
            "version": FORMAT_VERSION,
            "codec": self.codec_name,
            "num_records": self.num_records,
            "num_blocks": len(self._index),
            "serialized_bytes": self.serialized_bytes,
            "index_offset": index_offset,
            "index_length": index_length,
            "min_key": self._index[0].first_key if self._index else None,
            "max_key": self._index[-1].last_key if self._index else None,
            "metadata": self.metadata,
        }
        write_footer(self._handle, footer)
        self._handle.close()
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Close and remove the partial file after a failure."""
        if not self._closed:
            self._handle.close()
            self._closed = True
        try:
            os.remove(self.path)
        except OSError:
            pass

    def __enter__(self) -> "TableWriter":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


class Table:
    """Read-only view over one table file; queries decode blocks on demand.

    Safe for concurrent readers: block decodes go through the (locked)
    :class:`BlockCache` and the shared file handle's seek+read pair is
    serialised by an I/O lock.  Pass ``cache`` to share one block cache
    across several tables (cache entries are then namespaced by the table's
    absolute path); otherwise the table owns a private cache of
    ``cache_blocks`` entries.

    With ``use_mmap`` (the default) an uncompressed table is mapped into
    memory and block reads become lock-free ``memoryview`` slices decoded
    in place — no seek, no read-copy.  Compressed tables, and platforms
    where :func:`mmap.mmap` fails (empty files, exotic filesystems), fall
    back to the locked seek+read path transparently; results are identical
    either way.  ``blocks_decoded`` and ``bloom_rejections`` count the I/O
    decisions for benchmarks and tests: a point miss answered by a block's
    Bloom filter bumps ``bloom_rejections`` and decodes nothing.
    """

    def __init__(
        self,
        path: str,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        cache: Optional[BlockCache] = None,
        use_mmap: bool = True,
    ) -> None:
        self.path = path
        self._handle = open(path, "rb")
        try:
            self._footer = read_footer(self._handle)
            self._index = read_index(self._handle, self._footer)
        except Exception:
            self._handle.close()
            raise
        self._codec = get_codec(self._footer["codec"])
        self._shared_cache = cache is not None
        self._cache = cache if cache is not None else BlockCache(cache_blocks)
        # Private caches are keyed by block ordinal alone; a shared cache
        # needs the table identity too, and the absolute path makes two
        # openings of the same (immutable) file share entries.
        self._cache_namespace = os.path.abspath(path) if self._shared_cache else None
        self._first_keys = [entry.first_key for entry in self._index]
        self._blooms = [BloomFilter.from_spec(entry.bloom) for entry in self._index]
        self._io_lock = threading.Lock()
        self._mmap: Optional[mmap.mmap] = None
        if use_mmap and self._footer["codec"] == "none":
            # Zero-copy only pays off when block bytes are the record frames
            # themselves; a compressed block must be copied to decompress
            # anyway, so those tables keep the plain-file path.
            try:
                self._mmap = mmap.mmap(self._handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                self._mmap = None
        self.blocks_decoded = 0
        self.bloom_rejections = 0
        self.blocks_checksum_failed = 0
        self.decode_seconds = 0.0
        self._closed = False

    # ----------------------------------------------------------- properties
    @property
    def codec_name(self) -> str:
        return self._footer["codec"]

    @property
    def num_records(self) -> int:
        return self._footer["num_records"]

    @property
    def num_blocks(self) -> int:
        return self._footer["num_blocks"]

    @property
    def min_key(self) -> Any:
        return self._footer["min_key"]

    @property
    def max_key(self) -> Any:
        return self._footer["max_key"]

    @property
    def metadata(self) -> Dict[str, Any]:
        return self._footer["metadata"]

    @property
    def cache_stats(self) -> CacheStats:
        """Counters of this table's cache (cache-wide totals when shared)."""
        return self._cache.stats

    @property
    def mmap_active(self) -> bool:
        """True when block reads are zero-copy mmap slices."""
        return self._mmap is not None

    def block_first_keys(self) -> List[Any]:
        """Every block's first key, from the index alone (no block reads).

        One key per block, so the list is a records-proportional sample of
        the table's key distribution — what boundary planning needs.
        """
        return list(self._first_keys)

    def __len__(self) -> int:
        return self.num_records

    # ------------------------------------------------------------ internals
    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"table {self.path!r} is closed")

    def _block_key(self, block_index: int) -> Any:
        if self._cache_namespace is None:
            return block_index
        return (self._cache_namespace, block_index)

    def _verify_checksum(self, entry: BlockHandle, block_index: int, payload: Any) -> None:
        """Check a block's stored bytes against its index CRC before decoding.

        A mismatch — or an index entry that lost its checksum — is
        unambiguous on-disk corruption, reported with the partition/block
        identity the operator needs to locate the damaged file; nothing is
        ever served unverified.
        """
        actual = block_checksum(payload)
        if actual == entry.checksum:
            return
        self.blocks_checksum_failed += 1
        partition = self.metadata.get("partition")
        where = f"partition {partition}, " if partition is not None else ""
        stored = f"{entry.checksum:#010x}" if isinstance(entry.checksum, int) else "none"
        raise StoreError(
            f"checksum mismatch in block {block_index} ({where}{self.path!r}): "
            f"stored {stored}, computed {actual:#010x} — "
            "the table file is corrupt"
        )

    def _load_block(self, block_index: int) -> "DecodedBlock":
        block = self._cache.get(self._block_key(block_index))
        if block is not None:
            return block
        entry = self._index[block_index]
        # Concurrent misses on the same block both decode and both put —
        # harmless duplicate work; what must be serialised is the shared
        # handle's seek+read pair, or two readers interleave positions.
        # The mmap path has no shared cursor, so it takes no lock at all.
        if self._mmap is not None:
            if entry.offset + entry.length > len(self._mmap):
                raise StoreError(
                    f"truncated block {block_index} in {self.path!r}: "
                    f"block at offset {entry.offset} overruns the mapped file"
                )
            view = memoryview(self._mmap)[entry.offset : entry.offset + entry.length]
            self._verify_checksum(entry, block_index, view)
            decode_started = time.perf_counter()
            records = decode_block_view(view)
        else:
            with self._io_lock:
                self._handle.seek(entry.offset)
                payload = self._handle.read(entry.length)
            if len(payload) != entry.length:
                raise StoreError(
                    f"truncated block {block_index} in {self.path!r}: "
                    f"expected {entry.length} bytes, got {len(payload)}"
                )
            self._verify_checksum(entry, block_index, payload)
            decode_started = time.perf_counter()
            records = decode_block(payload, self._codec)
        self.blocks_decoded += 1
        self.decode_seconds += time.perf_counter() - decode_started
        if len(records) != entry.num_records:
            raise StoreError(
                f"block {block_index} in {self.path!r} decoded to {len(records)} "
                f"records, index says {entry.num_records}"
            )
        block = ([key for key, _ in records], records)
        self._cache.put(self._block_key(block_index), block)
        return block

    def _block_for_key(self, key: Any) -> Optional[int]:
        """Index of the single block that may contain ``key`` (None if out of range)."""
        if not self._index:
            return None
        position = bisect_right(self._first_keys, key) - 1
        if position < 0:
            return None
        if self._index[position].last_key < key:
            return None
        return position

    # ------------------------------------------------------------- queries
    def get(self, key: Any, default: Any = None) -> Any:
        """Point lookup: binary search the index, decode one block, bisect it.

        When the candidate block carries a Bloom filter, a filter miss
        answers the lookup from the index alone — no block is read or
        decoded (``bloom_rejections`` counts these short-circuits).
        """
        self._check_open()
        block_index = self._block_for_key(key)
        if block_index is None:
            return default
        bloom = self._blooms[block_index]
        if bloom is not None and not bloom.might_contain(key):
            self.bloom_rejections += 1
            return default
        keys, records = self._load_block(block_index)
        position = bisect_left(keys, key)
        if position < len(records) and keys[position] == key:
            return records[position][1]
        return default

    def __contains__(self, key: object) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def scan(self, start: Any = None, stop: Any = None) -> Iterator[Record]:
        """Stream records with ``start <= key < stop`` in key order.

        ``None`` bounds are open; the scan seeks straight to the first
        candidate block and stops as soon as a key reaches ``stop``, so a
        narrow range reads a handful of blocks regardless of table size.
        """
        self._check_open()
        if not self._index:
            return
        if start is None:
            first_block = 0
        else:
            first_block = max(0, bisect_right(self._first_keys, start) - 1)
        for block_index in range(first_block, len(self._index)):
            entry = self._index[block_index]
            if start is not None and entry.last_key < start:
                continue
            if stop is not None and not entry.first_key < stop:
                return
            for key, value in self._load_block(block_index)[1]:
                if start is not None and key < start:
                    continue
                if stop is not None and not key < stop:
                    return
                yield key, value

    def prefix(self, prefix: Tuple) -> Iterator[Record]:
        """Stream every record whose key starts with ``prefix`` (tuple keys)."""
        self._check_open()
        return prefix_records(self.scan, prefix)

    def top_k_into(self, accumulator: TopKAccumulator) -> None:
        """Offer this table's candidates to a (possibly shared) top-k heap.

        Blocks whose persisted max-value summary cannot beat the heap floor
        are skipped without being read or decoded; blocks without a summary
        (``max_value is None``: non-numeric values) are always scanned, so
        results match a full scan on any store.
        """
        self._check_open()
        for block_index, entry in enumerate(self._index):
            if not accumulator.admissible(entry.max_value, entry.first_key):
                accumulator.blocks_skipped += 1
                continue
            accumulator.blocks_scanned += 1
            for key, value in self._load_block(block_index)[1]:
                accumulator.offer(key, value)

    def top_k(self, k: int, order: str = "frequency") -> List[Record]:
        """The ``k`` top records (by value, or by key) without materialising."""
        self._check_open()
        validate_top_k(k, order)
        if order == "key":
            # Scans stream in key order, so the k smallest keys are simply
            # the first k records — no heap, no full pass.
            return list(islice(self.scan(), k))
        accumulator = TopKAccumulator(k)
        try:
            self.top_k_into(accumulator)
            return accumulator.results()
        except TypeError as exc:
            raise _frequency_type_error(exc) from exc

    def iter_records(self) -> Iterator[Record]:
        """Stream the whole table in key order."""
        return self.scan()

    def __iter__(self) -> Iterator[Record]:
        return self.iter_records()

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if not self._shared_cache:
            # A shared cache outlives any one table; its entries are evicted
            # by LRU pressure, not by a table closing.
            self._cache.clear()
        if self._mmap is not None:
            # decode_block_view copies records out via pickle.loads, so no
            # cached block holds a live view into the map — safe to close.
            self._mmap.close()
            self._mmap = None
        self._handle.close()

    def __enter__(self) -> "Table":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

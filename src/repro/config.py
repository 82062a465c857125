"""Configuration objects shared by all n-gram counting algorithms.

The paper restricts the n-gram statistics to be computed by two parameters
(Section II/III):

* ``min_frequency`` (τ) — only n-grams occurring at least τ times in the
  document collection are reported;
* ``max_length`` (σ) — only n-grams of at most σ terms are considered.
  ``None`` represents σ = ∞.

Additional knobs correspond to the implementation techniques of Section V
(document splitting at infrequent terms, combiners for local aggregation) and
to engine-level settings (number of reducers, i.e. the ``R`` used by the
partition function of Algorithm 4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.util.codecs import CODEC_NAMES

#: Sentinel used to express "no maximum length" (σ = ∞) in user-facing APIs.
UNBOUNDED: Optional[int] = None


@dataclass(frozen=True)
class NGramJobConfig:
    """Parameters controlling an n-gram statistics computation.

    Attributes
    ----------
    min_frequency:
        The minimum collection frequency τ ≥ 1.  n-grams occurring fewer than
        ``min_frequency`` times are not reported.
    max_length:
        The maximum n-gram length σ ≥ 1, or ``None`` for unbounded length.
    num_reducers:
        Number of reduce partitions ``R`` used by the engine.
    split_documents:
        Apply the "Document Splits" optimisation of Section V: documents are
        split at terms whose collection frequency is below τ, which is safe by
        the APRIORI principle and shortens the sequences each method has to
        process.
    use_combiner:
        Enable map-side local aggregation (a Hadoop combiner) where the
        algorithm supports it (NAIVE and the first phase of APRIORI methods).
    apriori_index_k:
        The ``K`` parameter of APRIORI-INDEX: n-grams up to this length are
        counted by direct indexing; longer n-grams are derived by joining
        posting lists.  The paper uses K = 4 in its experiments.
    count_document_frequency:
        When true, report document frequencies (number of documents containing
        the n-gram at least once) instead of collection frequencies.
    """

    min_frequency: int = 1
    max_length: Optional[int] = UNBOUNDED
    num_reducers: int = 4
    split_documents: bool = False
    use_combiner: bool = True
    apriori_index_k: int = 4
    count_document_frequency: bool = False

    def __post_init__(self) -> None:
        if self.min_frequency < 1:
            raise ConfigurationError(
                f"min_frequency (tau) must be >= 1, got {self.min_frequency}"
            )
        if self.max_length is not None and self.max_length < 1:
            raise ConfigurationError(
                f"max_length (sigma) must be >= 1 or None, got {self.max_length}"
            )
        if self.num_reducers < 1:
            raise ConfigurationError(
                f"num_reducers must be >= 1, got {self.num_reducers}"
            )
        if self.apriori_index_k < 1:
            raise ConfigurationError(
                f"apriori_index_k must be >= 1, got {self.apriori_index_k}"
            )

    @property
    def sigma(self) -> Optional[int]:
        """Alias for :attr:`max_length` using the paper's symbol."""
        return self.max_length

    @property
    def tau(self) -> int:
        """Alias for :attr:`min_frequency` using the paper's symbol."""
        return self.min_frequency

    def effective_max_length(self, document_length: int) -> int:
        """Return σ clamped to a concrete document length.

        When σ is unbounded the longest n-gram a document of
        ``document_length`` terms can contribute is the document itself.
        """
        if self.max_length is None:
            return document_length
        return min(self.max_length, document_length)

    def with_updates(self, **changes: object) -> "NGramJobConfig":
        """Return a copy of this configuration with ``changes`` applied."""
        return replace(self, **changes)  # type: ignore[arg-type]


#: Names of the MapReduce execution backends (see
#: ``repro.mapreduce.process.make_runner``).
RUNNER_NAMES = ("local", "processes")

#: Where job outputs (and streamed job inputs) are materialised: ``memory``
#: keeps record lists in RAM, ``disk`` writes sharded on-disk datasets (see
#: ``repro.mapreduce.dataset``).
MATERIALIZE_MODES = ("memory", "disk")

#: Pipeline output-retention policies: ``final`` drops each job's output
#: once the next job of the pipeline has consumed it (counters and metrics
#: are always kept), ``all`` retains every job's output.
RETENTION_POLICIES = ("final", "all")

#: Codec names accepted for shard files, spill runs and store blocks (see
#: ``repro.util.codecs``; ``zstd`` additionally needs the optional package).
SHARD_CODECS = CODEC_NAMES


_SPILL_THRESHOLD_PATTERN = re.compile(
    r"^\s*(?P<number>\d+)\s*(?P<unit>b|kb|mb|gb|k|m|r|rec|records?)?\s*$",
    re.IGNORECASE,
)

#: Unit suffix -> (is_record_count, multiplier) for ``parse_spill_threshold``.
_SPILL_THRESHOLD_UNITS = {
    None: (False, 1),
    "b": (False, 1),
    "kb": (False, 1024),
    "mb": (False, 1024 * 1024),
    "gb": (False, 1024 * 1024 * 1024),
    "k": (True, 1_000),
    "m": (True, 1_000_000),
    "r": (True, 1),
    "rec": (True, 1),
    "record": (True, 1),
    "records": (True, 1),
}


def parse_spill_threshold(text: str) -> Tuple[Optional[int], Optional[int]]:
    """Parse a ``--spill-threshold`` value into ``(bytes, records)``.

    Byte-metering the compact serialised encoding underestimates Python
    object overhead ~50x, so a record-count budget is often the more
    intuitive knob.  Bare numbers and ``b``/``kb``/``mb``/``gb`` suffixes
    are byte budgets (bare numbers for backward compatibility); ``k``/``m``
    shorthands and ``r``/``rec``/``records`` suffixes are record counts
    (``100k`` = 100,000 records).  Exactly one element of the returned pair
    is set.
    """
    match = _SPILL_THRESHOLD_PATTERN.match(text)
    if not match:
        raise ConfigurationError(
            f"invalid spill threshold {text!r}; use bytes (e.g. 65536, 64kb) "
            "or a record count (e.g. 100k, 5000r)"
        )
    unit = match.group("unit")
    is_records, multiplier = _SPILL_THRESHOLD_UNITS[unit.lower() if unit else None]
    value = int(match.group("number")) * multiplier
    if value < 1:
        raise ConfigurationError(f"spill threshold must be >= 1, got {text!r}")
    if is_records:
        return None, value
    return value, None


@dataclass(frozen=True)
class ExecutionConfig:
    """How the MapReduce engine executes a job's tasks.

    Attributes
    ----------
    runner:
        Execution backend: ``"local"`` (sequential, the default) or
        ``"processes"`` (multi-core worker processes; job components must
        pickle).  Both run the same loop and the same task code; they
        differ in where a task runs and so in how map output reaches the
        shuffle — emitted straight into it, or handed over as run files.
    max_workers:
        Worker count for the ``processes`` backend; ``None`` uses the CPU
        count.  Ignored by ``local``.
    spill_threshold_bytes:
        In-memory byte budget of the shuffle; past it, sorted runs of map
        output spill to disk and reducers stream from a k-way merge.
        ``None`` sets no budget: nothing spills (a ``processes`` map task
        still hands its output over as run files, which is not a spill).
    spill_threshold_records:
        Record-count alternative to the byte budget (bytes in the compact
        encoding underestimate Python object overhead ~50x); the shuffle
        spills when *either* configured budget is exceeded.
    spill_dir:
        Directory for spilled runs (a private temp directory by default).
    shard_codec:
        Compression codec for on-disk shard files and spill runs:
        ``"none"`` (default), ``"gzip"``, or ``"zstd"`` (requires the
        optional ``zstandard`` package).
    materialize:
        Where job I/O is materialised: ``"memory"`` (record lists, the
        default) or ``"disk"`` (sharded varint-framed datasets; inputs are
        split per shard and reduce partitions written as output shards).
    dataset_dir:
        Directory for disk-materialised datasets (a private temp directory
        by default); ignored in memory mode.
    retention:
        How long a pipeline keeps job outputs: ``"final"`` (default) drops
        every job's output once the next job has consumed it, ``"all"``
        keeps them for post-hoc inspection.
    """

    runner: str = "local"
    max_workers: Optional[int] = None
    spill_threshold_bytes: Optional[int] = None
    spill_threshold_records: Optional[int] = None
    spill_dir: Optional[str] = None
    shard_codec: str = "none"
    materialize: str = "memory"
    dataset_dir: Optional[str] = None
    retention: str = "final"

    def __post_init__(self) -> None:
        if self.runner not in RUNNER_NAMES:
            raise ConfigurationError(
                f"runner must be one of {', '.join(RUNNER_NAMES)}, got {self.runner!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1 or None, got {self.max_workers}"
            )
        if self.spill_threshold_bytes is not None and self.spill_threshold_bytes < 1:
            raise ConfigurationError(
                f"spill_threshold_bytes must be >= 1 or None, got {self.spill_threshold_bytes}"
            )
        if self.spill_threshold_records is not None and self.spill_threshold_records < 1:
            raise ConfigurationError(
                f"spill_threshold_records must be >= 1 or None, got {self.spill_threshold_records}"
            )
        if self.shard_codec not in SHARD_CODECS:
            raise ConfigurationError(
                f"shard_codec must be one of {', '.join(SHARD_CODECS)}, "
                f"got {self.shard_codec!r}"
            )
        if self.materialize not in MATERIALIZE_MODES:
            raise ConfigurationError(
                f"materialize must be one of {', '.join(MATERIALIZE_MODES)}, "
                f"got {self.materialize!r}"
            )
        if self.retention not in RETENTION_POLICIES:
            raise ConfigurationError(
                f"retention must be one of {', '.join(RETENTION_POLICIES)}, "
                f"got {self.retention!r}"
            )


DEFAULT_EXECUTION = ExecutionConfig()


@dataclass(frozen=True)
class StoreConfig:
    """How a counting run's statistics are persisted as an n-gram store.

    Attributes
    ----------
    num_partitions:
        Number of range partitions (= tables) the total-order-sort build
        job produces; queries route by the sampled partition boundaries.
    codec:
        Per-block compression codec of the tables (``none``/``gzip``/
        ``zstd``; ``zstd`` requires the optional ``zstandard`` package).
    records_per_block:
        Records per data block — the unit of compression and of random-read
        I/O in the store tables.
    sample_size:
        Keys sampled from the input when planning partition boundaries.
    bloom_bits_per_key:
        Bloom-filter budget per key for the per-block filters persisted in
        each table's block index (``0`` disables the filters).  The default
        10 bits/key gives roughly a 1% false-positive rate on point misses.
    min_frequency:
        The store's serving threshold τ.  With ``min_frequency > 1`` the
        build splits an *unfiltered* (τ=1) count table: counts ``>= τ``
        form the main store, counts in ``[1, τ)`` go to the residual
        sidecar table — which is what makes later store merges exact at
        any τ (see :mod:`repro.ngramstore.merge`).  The default 1 keeps
        the classic single-table build.
    """

    num_partitions: int = 4
    codec: str = "none"
    records_per_block: int = 1024
    sample_size: int = 1024
    bloom_bits_per_key: int = 10
    min_frequency: int = 1

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ConfigurationError(
                f"num_partitions must be >= 1, got {self.num_partitions}"
            )
        if self.codec not in SHARD_CODECS:
            raise ConfigurationError(
                f"store codec must be one of {', '.join(SHARD_CODECS)}, got {self.codec!r}"
            )
        if self.records_per_block < 1:
            raise ConfigurationError(
                f"records_per_block must be >= 1, got {self.records_per_block}"
            )
        if self.sample_size < 1:
            raise ConfigurationError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.bloom_bits_per_key < 0:
            raise ConfigurationError(
                f"bloom_bits_per_key must be >= 0 (0 disables), "
                f"got {self.bloom_bits_per_key}"
            )
        if self.min_frequency < 1:
            raise ConfigurationError(
                f"store min_frequency must be >= 1, got {self.min_frequency}"
            )


@dataclass(frozen=True)
class ServerConfig:
    """How the n-gram store query server listens and caches.

    Attributes
    ----------
    host:
        Interface to bind; loopback by default (explicitly opt in to
        exposing the store beyond the machine).
    port:
        TCP port to listen on; ``0`` asks the OS for an ephemeral port
        (the server reports the bound port after start).
    cache_blocks:
        Capacity of the process-wide LRU block cache *shared by every
        partition* — unlike per-table caches, one hot working set serves
        all connections.  Resident memory is roughly ``cache_blocks x
        records_per_block x bytes per decoded record``.
    max_clients:
        Concurrently served connections; further connects wait in the
        listen backlog until a handler slot frees up.
    protocol:
        Wire protocol to serve: ``"socket"`` (binary frames or
        newline-delimited JSON over TCP, the efficient in-repo path) or
        ``"http"`` (the REST adapter, reachable by curl/browsers/load
        balancers).
    num_shards / shard_index:
        Range sharding: serve only shard ``shard_index`` of a
        ``num_shards``-way split of the store's partitions.  The default
        (one shard, index 0) serves the whole store.
    slow_query_ms:
        Requests at or above this many milliseconds are appended to the
        structured slow-query log (trace ID, per-stage timings, I/O
        deltas).  ``None`` (the default) disables slow-query logging.
    slow_query_log:
        JSON-lines file the slow-query log appends to (parent directories
        are created).  ``None`` keeps slow queries in memory only —
        visible to in-process owners of the server object.
    extra_store:
        Directory of a second *comparison* store to mount read-only next
        to the served store, enabling the ``compare`` operation (point
        diff/intersect lookups across the two).  ``None`` (the default)
        leaves ``compare`` unavailable.
    """

    host: str = "127.0.0.1"
    port: int = 0
    cache_blocks: int = 256
    max_clients: int = 32
    protocol: str = "socket"
    num_shards: int = 1
    shard_index: int = 0
    slow_query_ms: Optional[float] = None
    slow_query_log: Optional[str] = None
    extra_store: Optional[str] = None

    def __post_init__(self) -> None:
        if self.extra_store is not None and not isinstance(self.extra_store, str):
            raise ConfigurationError(
                f"extra_store must be a store directory path, got {self.extra_store!r}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.cache_blocks < 1:
            raise ConfigurationError(
                f"cache_blocks must be >= 1, got {self.cache_blocks}"
            )
        if self.max_clients < 1:
            raise ConfigurationError(f"max_clients must be >= 1, got {self.max_clients}")
        if self.protocol not in ("socket", "http"):
            raise ConfigurationError(
                f"protocol must be 'socket' or 'http', got {self.protocol!r}"
            )
        if self.num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {self.num_shards}")
        if not 0 <= self.shard_index < self.num_shards:
            raise ConfigurationError(
                f"shard_index must be in [0, {self.num_shards}), got {self.shard_index}"
            )
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise ConfigurationError(
                f"slow_query_ms must be >= 0, got {self.slow_query_ms}"
            )
        if self.slow_query_log is not None and self.slow_query_ms is None:
            raise ConfigurationError(
                "slow_query_log requires slow_query_ms (a log with no "
                "threshold would never be written)"
            )

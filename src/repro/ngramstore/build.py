"""Writing a store: a total-order-sort MapReduce job into the one store writer.

Hadoop's ``TotalOrderPartitioner`` pattern, reproduced on this engine: the
input dataset's keys are *sampled* to estimate the key distribution, the
sample yields ``R - 1`` range-partition boundaries, and an identity
map/reduce job with a :class:`RangePartitioner` routes every record to the
partition owning its key range.  The shuffle sorts within each partition
(natural tuple order), so the job's reduce outputs are ``R`` sorted runs
whose ranges are disjoint and ordered — partition ``i``'s largest key sorts
before partition ``i + 1``'s smallest — and their concatenation is one
key-ordered stream.

That stream goes into a :class:`StoreWriter`, the one write path of the
store layer: :func:`build_store`, the store merge under ``merge-stores``,
``compact`` and ``rethreshold`` (:mod:`repro.ngramstore.merge`), and the
diff and intersect stores (:mod:`repro.ngramstore.analytics`) all write
through it.  The writer routes each record into its partition's immutable
table with one key comparison against the next boundary, splits main and
residual tables at τ, and commits the manifests; the boundaries persisted
there let the reader route queries the same way the writer routed records.
At no point is the full record set sorted (or even held) in the launcher's
memory: sampling streams, the job streams under the runner's
materialisation policy, and table writing streams.
"""

from __future__ import annotations

import json
import os
import shutil
from bisect import bisect_right
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import ExecutionConfig, StoreConfig
from repro.exceptions import StoreError
from repro.mapreduce.process import make_runner
from repro.mapreduce.dataset import Dataset
from repro.mapreduce.job import IdentityMapper, JobSpec, Partitioner, Reducer, TaskContext
from repro.mapreduce.pipeline import JobPipeline
from repro.ngramstore.table import TableWriter

Record = Tuple[Any, Any]

#: Manifest filename inside a store directory.
MANIFEST_FILENAME = "store.json"

#: Vocabulary filename inside a store directory (same layout as a corpus
#: directory, so the file is readable by the existing corpus tooling).
DICTIONARY_FILENAME = "dictionary.txt"

#: Table filename pattern, one file per range partition.
PARTITION_PATTERN = "part-{index:05d}.ngt"

#: Subdirectory holding a store's residual sidecar table — itself a full
#: store (manifest + partition tables, same boundaries as the main store)
#: whose records are the keys counted *below* the main store's τ, i.e.
#: counts in ``[1, τ)``.  Main + residual together are the exact full count
#: table, which is what makes k-way merge exact at any τ (a key under τ in
#: every shard can still cross τ in the union).
RESIDUAL_DIRNAME = "residual"

#: Manifest format version.
MANIFEST_VERSION = 1

#: Keys sampled from the input when planning partition boundaries.
DEFAULT_SAMPLE_SIZE = 1024


class RangePartitioner(Partitioner):
    """Routes keys to range partitions via sorted boundary keys.

    Partition ``i`` owns the keys ``k`` with ``boundaries[i-1] <= k <
    boundaries[i]`` (open-ended at both extremes); ``len(boundaries) + 1``
    partitions exist.  The object is picklable, so process backends ship it
    to workers like any other job component.
    """

    def __init__(self, boundaries: Iterable[Tuple]) -> None:
        self.boundaries = tuple(boundaries)
        if any(
            not self.boundaries[index] < self.boundaries[index + 1]
            for index in range(len(self.boundaries) - 1)
        ):
            raise StoreError("range partition boundaries must be strictly increasing")

    @property
    def num_partitions(self) -> int:
        return len(self.boundaries) + 1

    def partition(self, key: Any, num_partitions: int) -> int:
        if num_partitions != self.num_partitions:
            raise StoreError(
                f"range partitioner built for {self.num_partitions} partitions "
                f"used with num_reducers={num_partitions}"
            )
        return bisect_right(self.boundaries, key)


class SortedRunReducer(Reducer):
    """Forwards each key's single value; duplicate keys are a build error.

    The reducer sees keys in sorted order, so its emissions are exactly the
    partition's sorted run.  Store records map one key to one value; a key
    arriving with several values means the input was not aggregated
    (e.g. raw map output instead of counted statistics), which would
    silently drop data if forwarded — fail loudly instead.
    """

    def reduce(self, key: Any, values: Iterable[Any], context: TaskContext) -> None:
        values = list(values)
        if len(values) != 1:
            raise StoreError(
                f"duplicate key {key!r} in store build input ({len(values)} values); "
                "store inputs must map each n-gram to exactly one value"
            )
        context.emit(key, values[0])


def sample_keys(dataset: Dataset, sample_size: int = DEFAULT_SAMPLE_SIZE) -> List[Any]:
    """Evenly strided key sample of a dataset (deterministic, streaming).

    Every ``ceil(n / sample_size)``-th key is taken during one pass, so the
    sample spans the whole dataset without materialising it and without
    randomness — rebuilding a store from the same input yields the same
    boundaries, hence byte-identical partitions.
    """
    if sample_size < 1:
        raise StoreError(f"sample_size must be >= 1, got {sample_size}")
    total = dataset.num_records
    if total == 0:
        return []
    stride = max(1, -(-total // sample_size))  # ceil division
    sample: List[Any] = []
    for position, (key, _) in enumerate(dataset.iter_records()):
        if position % stride == 0:
            sample.append(key)
    return sample


def plan_boundaries(sample: List[Any], num_partitions: int) -> List[Any]:
    """Quantile boundaries splitting a key sample into ``num_partitions`` ranges.

    Duplicates are dropped, so a skewed sample yields fewer boundaries
    (hence fewer non-empty partitions) rather than empty ranges.
    """
    if num_partitions < 1:
        raise StoreError(f"num_partitions must be >= 1, got {num_partitions}")
    if num_partitions == 1 or not sample:
        return []
    ordered = sorted(sample)
    boundaries: List[Any] = []
    for index in range(1, num_partitions):
        candidate = ordered[(index * len(ordered)) // num_partitions]
        if not boundaries or boundaries[-1] < candidate:
            boundaries.append(candidate)
    return boundaries


def total_order_sort_job(
    name: str, boundaries: List[Any], num_map_tasks: Optional[int] = None
) -> JobSpec:
    """The identity job whose shuffle produces ordered, sorted partitions."""
    partitioner = RangePartitioner(boundaries)
    return JobSpec(
        name=name,
        mapper_factory=IdentityMapper,
        reducer_factory=SortedRunReducer,
        partitioner=partitioner,
        num_reducers=partitioner.num_partitions,
        num_map_tasks=num_map_tasks,
    )


def validated_min_frequency(min_frequency: Any) -> int:
    """τ as every write path takes it: an ``int >= 1`` (a ``bool`` is not one)."""
    if isinstance(min_frequency, bool) or not isinstance(min_frequency, int):
        raise StoreError(f"min_frequency must be an integer, got {min_frequency!r}")
    if min_frequency < 1:
        raise StoreError(f"min_frequency must be >= 1, got {min_frequency}")
    return min_frequency


def count_reaches(key: Any, value: Any, threshold: int) -> bool:
    """``value >= threshold`` for a real count; anything else refuses loudly.

    Comparing against τ is how records are split (main vs residual) and
    filtered (the analytics' ``min_frequency``), so a non-integer — or a
    ``bool``, which would compare as 0/1 — would silently land records on
    the wrong side.  Counts below 1 mean the input was already τ-filtered:
    a residual built from it would be incomplete and every later merge
    silently wrong.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise StoreError(
            f"min_frequency={threshold} needs integer counts: key {key!r} has "
            f"{type(value).__name__} value {value!r}"
        )
    if value < 1:
        raise StoreError(
            f"min_frequency={threshold} saw count {value} for key {key!r}; counts "
            "must be >= 1 — was the input already frequency-filtered?"
        )
    return value >= threshold


def clear_store_dir(store_dir: str) -> None:
    """Prepare ``store_dir`` for a (re)build: drop manifest and tables.

    The manifest goes *first*, and the old tables with it: a crash mid-build
    then leaves a directory without a manifest — which refuses to open —
    instead of an old manifest routing queries into new partition files, and
    a rebuild with fewer partitions leaves no orphan tables behind.
    """
    os.makedirs(store_dir, exist_ok=True)
    manifest_path = os.path.join(store_dir, MANIFEST_FILENAME)
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    residual_path = os.path.join(store_dir, RESIDUAL_DIRNAME)
    if os.path.isdir(residual_path):
        shutil.rmtree(residual_path)
    for name in sorted(os.listdir(store_dir)):
        if name.endswith(".ngt"):
            os.remove(os.path.join(store_dir, name))


def read_dictionary(store_dir: str) -> Optional[List[str]]:
    """The vocabulary lines persisted in ``store_dir``, or None without one."""
    path = os.path.join(store_dir, DICTIONARY_FILENAME)
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle]


def shared_vocabulary(
    sources: Iterable[Tuple[str, Optional[Iterable[str]]]]
) -> Optional[List[str]]:
    """The vocabulary every source that has one agrees on; None if none has.

    ``sources`` are ``(name, lines)`` pairs, ``lines`` None for a source
    without a vocabulary.  Store keys are term-identifier tuples, and
    identifiers are only comparable across stores encoded against the
    *same* vocabulary, so the merge, the cross-store analytics and LSM
    ingestion all refuse sources whose dictionaries differ line for line —
    combining them would silently mix unrelated n-grams.  (Per-shard runs
    agree by encoding every shard with the shared corpus dictionary.)
    """
    reference: Optional[List[str]] = None
    reference_name = ""
    for name, lines in sources:
        if lines is None:
            continue
        lines = list(lines)
        if reference is None:
            reference, reference_name = lines, name
        elif lines != reference:
            raise StoreError(
                f"different vocabularies: {name} vocabulary disagrees with "
                f"{reference_name}; encode every input against one shared dictionary"
            )
    return reference


class StoreWriter:
    """Writes one key-ordered record stream as a store directory.

    The one write path of the store layer (see the module docstring).  The
    writer is created with the partition ``boundaries`` and τ
    (``min_frequency``), and then:

    * clears ``store_dir`` (:func:`clear_store_dir`) on creation, after τ
      is validated;
    * :meth:`write` routes each record with one key comparison against the
      next boundary — partition ``i`` gets exactly the keys
      :class:`RangePartitioner` sends it, and partitions the stream never
      reaches are written empty — and with τ above 1 sends counts ``>= τ``
      to the main tables and the rest to the residual sidecar
      (:data:`RESIDUAL_DIRNAME`), checking every count once with
      :func:`count_reaches`; a failure aborts the partial tables;
    * :meth:`commit` writes the residual manifest, then the dictionary, then
      the main manifest last: the main manifest is the commit point.

    Record counts and the unigram aggregates the language model reads from
    manifest metadata (``unigram_total``, ``vocabulary_size``) are exposed
    once the stream is written.
    """

    def __init__(
        self,
        store_dir: str,
        store: StoreConfig,
        boundaries: List[Any],
        min_frequency: int = 1,
    ) -> None:
        self.min_frequency = validated_min_frequency(min_frequency)
        self.store_dir = store_dir
        self.store = store
        self.boundaries = list(boundaries)
        self.residual_dir: Optional[str] = None
        if self.min_frequency > 1:
            self.residual_dir = os.path.join(store_dir, RESIDUAL_DIRNAME)
        self.partitions: List[Dict[str, Any]] = []
        self.residual_partitions: List[Dict[str, Any]] = []
        self._unigrams: List[Any] = []
        clear_store_dir(store_dir)
        if self.residual_dir is not None:
            os.makedirs(self.residual_dir)

    @property
    def num_records(self) -> int:
        """Records written to the main tables."""
        return sum(entry["num_records"] for entry in self.partitions)

    @property
    def residual_records(self) -> int:
        """Records written to the residual tables."""
        return sum(entry["num_records"] for entry in self.residual_partitions)

    @property
    def unigram_total(self) -> Any:
        """Sum of the unigram counts written, main and residual alike."""
        return sum(self._unigrams)

    @property
    def vocabulary_size(self) -> int:
        """Number of unigrams written, main and residual alike."""
        return len(self._unigrams)

    def _open_tables(self) -> Tuple[TableWriter, Optional[TableWriter]]:
        index = len(self.partitions)
        name = PARTITION_PATTERN.format(index=index)
        layout = {
            "codec": self.store.codec,
            "records_per_block": self.store.records_per_block,
            "bloom_bits_per_key": self.store.bloom_bits_per_key,
        }
        main = TableWriter(
            os.path.join(self.store_dir, name), metadata={"partition": index}, **layout
        )
        if self.residual_dir is None:
            return main, None
        residual = TableWriter(
            os.path.join(self.residual_dir, name),
            metadata={"partition": index, "residual": True},
            **layout,
        )
        return main, residual

    def _seal(self, tables: Tuple[TableWriter, Optional[TableWriter]]) -> None:
        for table, entries in zip(tables, (self.partitions, self.residual_partitions)):
            if table is not None:
                path = table.close()
                entries.append(
                    {
                        "file": os.path.basename(path),
                        "num_records": table.num_records,
                        "serialized_bytes": table.serialized_bytes,
                        "file_bytes": os.path.getsize(path),
                    }
                )

    def write(self, records: Iterable[Record]) -> None:
        """Stream key-ordered ``records`` into the partition tables."""
        threshold = self.min_frequency
        unigrams = self._unigrams
        remaining = iter(self.boundaries)
        bound = next(remaining, None)
        tables = main, residual = self._open_tables()
        try:
            for key, value in records:
                while bound is not None and not key < bound:
                    self._seal(tables)
                    tables = main, residual = self._open_tables()
                    bound = next(remaining, None)
                if len(key) == 1:
                    unigrams.append(value)
                if residual is None or count_reaches(key, value, threshold):
                    main.append(key, value)
                else:
                    residual.append(key, value)
            self._seal(tables)
            while len(self.partitions) <= len(self.boundaries):
                tables = self._open_tables()
                self._seal(tables)
        except BaseException:
            for table in tables:
                if table is not None:
                    table.abort()
            raise

    def commit(
        self,
        metadata: Optional[Dict[str, Any]] = None,
        vocabulary_lines: Optional[Iterable[str]] = None,
    ) -> Dict[str, Any]:
        """Write the manifests and the dictionary; returns the main manifest.

        With a residual, the main manifest records it and its metadata is
        stamped with the writer's τ, so the two can never disagree.
        """
        metadata = dict(metadata) if metadata else {}
        residual: Optional[Dict[str, Any]] = None
        if self.residual_dir is not None:
            self._write_manifest(
                self.residual_dir,
                self.residual_partitions,
                {"residual": True, "residual_below": self.min_frequency, "min_frequency": 1},
            )
            residual = {
                "directory": RESIDUAL_DIRNAME,
                "below": self.min_frequency,
                "num_records": self.residual_records,
            }
            metadata["min_frequency"] = self.min_frequency
        if vocabulary_lines is not None:
            path = os.path.join(self.store_dir, DICTIONARY_FILENAME)
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(line + "\n" for line in vocabulary_lines)
        return self._write_manifest(
            self.store_dir, self.partitions, metadata, vocabulary_lines is not None, residual
        )

    def _write_manifest(
        self,
        directory: str,
        partitions: List[Dict[str, Any]],
        metadata: Dict[str, Any],
        has_vocabulary: bool = False,
        residual: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Write one manifest atomically: readers see the old file or the new one."""
        manifest = {
            "version": MANIFEST_VERSION,
            "codec": self.store.codec,
            "records_per_block": self.store.records_per_block,
            "num_partitions": len(partitions),
            "boundaries": [list(boundary) for boundary in self.boundaries],
            "partitions": partitions,
            "num_records": sum(entry["num_records"] for entry in partitions),
            "serialized_bytes": sum(entry["serialized_bytes"] for entry in partitions),
            "has_vocabulary": has_vocabulary,
            "metadata": metadata,
        }
        if residual is not None:
            manifest["residual"] = residual
        path = os.path.join(directory, MANIFEST_FILENAME)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        os.replace(path + ".tmp", path)
        return manifest


def sort_into_store(
    records: Any,
    store_dir: str,
    store: Optional[StoreConfig] = None,
    execution: Optional[ExecutionConfig] = None,
    pipeline: Optional[JobPipeline] = None,
    name: str = "ngramstore",
) -> StoreWriter:
    """Sample, total-order sort and write ``records`` as ``store_dir``'s tables.

    The work of :func:`build_store` short of the commit: returns the
    :class:`StoreWriter` with every table written and no manifest yet, for
    a caller whose manifest metadata depends on what was written (a
    counting run records the writer's unigram aggregates).
    """
    store = store if store is not None else StoreConfig()
    if pipeline is None:
        pipeline = JobPipeline(runner=make_runner(execution))
    if isinstance(records, Dataset):
        dataset = records
    else:
        dataset = pipeline.materialize_input(iter(records), name=f"{name}-input")
    boundaries = plan_boundaries(
        sample_keys(dataset, store.sample_size), store.num_partitions
    )
    writer = StoreWriter(store_dir, store, boundaries, store.min_frequency)
    result = pipeline.run_job(total_order_sort_job(f"{name}-total-order-sort", boundaries), dataset)
    writer.write(
        chain.from_iterable(partition.iter_records() for partition in result.partition_datasets)
    )
    result.release_output()
    return writer


def build_store(
    records: Any,
    store_dir: str,
    store: Optional[StoreConfig] = None,
    execution: Optional[ExecutionConfig] = None,
    pipeline: Optional[JobPipeline] = None,
    metadata: Optional[Dict[str, Any]] = None,
    vocabulary: Optional[Any] = None,
    name: str = "ngramstore",
) -> str:
    """Build an on-disk n-gram store from ``(ngram, value)`` records.

    ``records`` is a :class:`~repro.mapreduce.dataset.Dataset` (e.g. a
    counting job's ``output_dataset``) or any iterable of records; iterables
    are materialised under the runner's policy (sharded on-disk files in
    disk mode), so the build is out-of-core end to end when the execution
    configuration is.  ``pipeline`` lets a caller supply the job pipeline
    (for tests that inspect the sort job); by default a private pipeline is
    created from ``execution`` so the build does not pollute a counting
    run's measured counters.  ``vocabulary`` (any object with ``to_lines``)
    is persisted alongside the tables so queries can speak surface terms.

    When ``store.min_frequency`` (τ) is above 1, the input must be the
    *unfiltered* (τ=1) count table: records with counts ``>= τ`` become the
    main store and the rest — counts in ``[1, τ)`` — are written to the
    residual sidecar store under ``store_dir/residual/``, with the same
    partition boundaries.  Main + residual together remain the exact full
    count table, so :func:`~repro.ngramstore.merge.merge_stores` can merge
    such stores exactly at any τ without recounting the corpus.

    Returns ``store_dir``.
    """
    writer = sort_into_store(records, store_dir, store, execution, pipeline, name)
    writer.commit(metadata, None if vocabulary is None else vocabulary.to_lines())
    return store_dir


def read_manifest_file(path: str) -> Dict[str, Any]:
    """Parse the manifest at ``path``; a torn or non-object file is a StoreError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except ValueError as exc:
        raise StoreError(f"corrupt manifest {path!r}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StoreError(
            f"corrupt manifest {path!r}: expected a JSON object, "
            f"got {type(manifest).__name__}"
        )
    return manifest


def load_manifest(store_dir: str) -> Dict[str, Any]:
    """Read and validate a store directory's manifest."""
    path = os.path.join(store_dir, MANIFEST_FILENAME)
    if not os.path.exists(path):
        raise StoreError(f"no store manifest ({MANIFEST_FILENAME}) in {store_dir!r}")
    manifest = read_manifest_file(path)
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise StoreError(
            f"unsupported store manifest version {version!r} (expected {MANIFEST_VERSION})"
        )
    return manifest


def manifest_boundaries(manifest: Dict[str, Any]) -> List[Tuple]:
    """The manifest's partition boundaries as key tuples."""
    return [tuple(boundary) for boundary in manifest["boundaries"]]


def iter_statistics_records(statistics: Any) -> Iterator[Record]:
    """Adapt an :class:`~repro.ngrams.statistics.NGramStatistics` to records."""
    return iter(statistics.items())

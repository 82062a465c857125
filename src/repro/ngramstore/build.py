"""Building a store with a total-order-sort MapReduce job.

Hadoop's ``TotalOrderPartitioner`` pattern, reproduced on this engine: the
input dataset's keys are *sampled* to estimate the key distribution, the
sample yields ``R - 1`` range-partition boundaries, and an identity
map/reduce job with a :class:`RangePartitioner` routes every record to the
partition owning its key range.  The shuffle sorts within each partition
(natural tuple order), so the job's reduce outputs are ``R`` sorted runs
whose ranges are disjoint and ordered — partition ``i``'s largest key sorts
before partition ``i + 1``'s smallest.  Each partition is then streamed
into one immutable table file, and the boundaries are persisted in the
store manifest so the reader can route queries the same way the build
routed records.  At no point is the full record set sorted (or even held)
in the launcher's memory: sampling streams, the job streams under the
runner's materialisation policy, and table writing streams per partition.
"""

from __future__ import annotations

import json
import os
import shutil
from bisect import bisect_right
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


def _key_to_json(key: Any) -> List[Any]:
    return list(key)


def _json_to_key(data: Iterable[Any]) -> Tuple:
    return tuple(data)


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


def write_dictionary(store_dir: str, lines: Iterable[str]) -> str:
    """Persist vocabulary ``lines`` next to the tables; returns the path."""
    path = os.path.join(store_dir, DICTIONARY_FILENAME)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return path


def write_store_manifest(
    store_dir: str,
    *,
    codec: str,
    records_per_block: int,
    boundaries: List[Any],
    partitions: List[Dict[str, Any]],
    has_vocabulary: bool,
    metadata: Optional[Dict[str, Any]] = None,
    residual: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the store manifest (shared by the build job and the store merge).

    ``residual`` describes the store's residual sidecar table (see
    :data:`RESIDUAL_DIRNAME`) when one was written — e.g. ``{"directory":
    "residual", "below": 3, "num_records": 17}``.  Old readers ignore the
    extra manifest entry, so the manifest version is unchanged.
    """
    manifest = {
        "version": MANIFEST_VERSION,
        "codec": codec,
        "records_per_block": records_per_block,
        "num_partitions": len(partitions),
        "boundaries": [_key_to_json(boundary) for boundary in boundaries],
        "partitions": partitions,
        "num_records": sum(entry["num_records"] for entry in partitions),
        "serialized_bytes": sum(entry["serialized_bytes"] for entry in partitions),
        "has_vocabulary": has_vocabulary,
        "metadata": dict(metadata) if metadata else {},
    }
    if residual is not None:
        manifest["residual"] = dict(residual)
    with open(os.path.join(store_dir, MANIFEST_FILENAME), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return manifest


def _check_splittable_count(key: Any, value: Any, threshold: int) -> None:
    """A record routed to main-vs-residual must carry a real count ``>= 1``.

    Splitting compares the value against τ, so a non-integer (or a ``bool``,
    which would compare as 0/1) would silently land records in the wrong
    table — refuse instead.  Counts below 1 mean the input was already
    τ-filtered, so the residual would be incomplete and every later merge
    silently wrong.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise StoreError(
            f"residual split needs integer counts: key {key!r} has "
            f"{type(value).__name__} value {value!r} (building with "
            f"min_frequency={threshold} requires a raw count table)"
        )
    if value < 1:
        raise StoreError(
            f"residual split saw count {value} for key {key!r}; counts must be "
            ">= 1 — was the input already frequency-filtered?"
        )


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
    store = store if store is not None else StoreConfig()
    clear_store_dir(store_dir)
    if pipeline is None:
        runner = make_runner(execution)
        pipeline = JobPipeline(runner=runner)

    if isinstance(records, Dataset):
        dataset = records
    else:
        dataset = pipeline.materialize_input(iter(records), name=f"{name}-input")

    boundaries = plan_boundaries(
        sample_keys(dataset, store.sample_size), store.num_partitions
    )
    job = total_order_sort_job(f"{name}-total-order-sort", boundaries)
    result = pipeline.run_job(job, dataset)

    threshold = store.min_frequency
    residual_dir = os.path.join(store_dir, RESIDUAL_DIRNAME)
    if threshold > 1:
        os.makedirs(residual_dir, exist_ok=True)

    def _partition_entry(path: str, writer: TableWriter) -> Dict[str, Any]:
        return {
            "file": os.path.basename(path),
            "num_records": writer.num_records,
            "serialized_bytes": writer.serialized_bytes,
            "file_bytes": os.path.getsize(path),
        }

    partitions: List[Dict[str, Any]] = []
    residual_partitions: List[Dict[str, Any]] = []
    for index, partition in enumerate(result.partition_datasets):
        path = os.path.join(store_dir, PARTITION_PATTERN.format(index=index))
        with TableWriter(
            path,
            codec=store.codec,
            records_per_block=store.records_per_block,
            metadata={"partition": index},
            bloom_bits_per_key=store.bloom_bits_per_key,
        ) as writer:
            if threshold <= 1:
                writer.extend(partition.iter_records())
            else:
                residual_path = os.path.join(
                    residual_dir, PARTITION_PATTERN.format(index=index)
                )
                with TableWriter(
                    residual_path,
                    codec=store.codec,
                    records_per_block=store.records_per_block,
                    metadata={"partition": index, "residual": True},
                    bloom_bits_per_key=store.bloom_bits_per_key,
                ) as residual_writer:
                    for key, value in partition.iter_records():
                        _check_splittable_count(key, value, threshold)
                        if value >= threshold:
                            writer.append(key, value)
                        else:
                            residual_writer.append(key, value)
                residual_partitions.append(_partition_entry(residual_path, residual_writer))
        partitions.append(_partition_entry(path, writer))
    result.release_output()

    has_vocabulary = vocabulary is not None
    if has_vocabulary:
        write_dictionary(store_dir, vocabulary.to_lines())

    residual_entry: Optional[Dict[str, Any]] = None
    if threshold > 1:
        metadata = dict(metadata) if metadata else {}
        metadata["min_frequency"] = threshold
        write_store_manifest(
            residual_dir,
            codec=store.codec,
            records_per_block=store.records_per_block,
            boundaries=boundaries,
            partitions=residual_partitions,
            has_vocabulary=False,
            metadata={"residual": True, "residual_below": threshold, "min_frequency": 1},
        )
        residual_entry = {
            "directory": RESIDUAL_DIRNAME,
            "below": threshold,
            "num_records": sum(entry["num_records"] for entry in residual_partitions),
        }

    write_store_manifest(
        store_dir,
        codec=store.codec,
        records_per_block=store.records_per_block,
        boundaries=boundaries,
        partitions=partitions,
        has_vocabulary=has_vocabulary,
        metadata=metadata,
        residual=residual_entry,
    )
    return store_dir


def load_manifest(store_dir: str) -> Dict[str, Any]:
    """Read and validate a store directory's manifest."""
    path = os.path.join(store_dir, MANIFEST_FILENAME)
    if not os.path.exists(path):
        raise StoreError(f"no store manifest ({MANIFEST_FILENAME}) in {store_dir!r}")
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise StoreError(
            f"unsupported store manifest version {version!r} (expected {MANIFEST_VERSION})"
        )
    return manifest


def manifest_boundaries(manifest: Dict[str, Any]) -> List[Tuple]:
    """The manifest's partition boundaries as key tuples."""
    return [_json_to_key(boundary) for boundary in manifest["boundaries"]]


def iter_statistics_records(statistics: Any) -> Iterator[Record]:
    """Adapt an :class:`~repro.ngrams.statistics.NGramStatistics` to records."""
    return iter(statistics.items())

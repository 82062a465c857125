"""LSM-style store generations: incremental ingestion over immutable tables.

A classic batch build produces one immutable store per corpus — absorbing
new documents means recounting everything.  This module turns the store
layer into a small LSM tree instead:

* an **LSM directory** holds an ordered list of *generations* — each one a
  complete, immutable store directory — described by a ``MANIFEST`` file;
* ``ingest`` counts a new corpus batch at τ=1 into a fresh *delta*
  generation (counting at τ=1 keeps every count, which is what makes later
  merges exact — see :mod:`repro.ngramstore.merge`);
* ``compact`` folds generations together through
  :func:`~repro.ngramstore.merge.merge_stores`, applying the tree's
  serving threshold τ and writing the residual sidecar that keeps the
  result residual-exact; the size-tiered policy merges clusters of
  similarly-sized generations so write amplification stays logarithmic,
  and ``--all`` collapses the tree to a single generation;
* :class:`GenerationView` serves the live generations as one
  :class:`~repro.ngramstore.api.StoreAPI`: point lookups and scans *sum*
  counts across generations (each document batch was counted exactly once,
  so summing main-table counts is the union count) — a scan is the store
  merge's kernel, ``summed(merge_join(...))``, and a lookup adds with the
  same :func:`~repro.ngramstore.merge.sum_values` — top-k is exact via the
  shared :class:`~repro.ngramstore.table.TopKAccumulator`, and every
  generation reads through one shared block cache — so ``repro serve`` and
  the whole distributed tier serve an ingesting store unchanged.

Serving semantics between compactions: a view sums *main*-table counts
only.  Delta generations are τ=1, so their full counts are served; a
compacted generation serves its counts ``>= τ`` while its residual sidecar
(counts in ``[1, τ)``) is merge bookkeeping, not servable.  After
``compact --all`` the single remaining generation is exactly the
τ-thresholded union recount — the identity the tests assert.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.config import ExecutionConfig, StoreConfig
from repro.exceptions import StoreError
from repro.ngramstore.api import StoreAPI
from repro.ngramstore.build import (
    build_store,
    read_dictionary,
    read_manifest_file,
    shared_vocabulary,
    validated_min_frequency,
)
from repro.ngramstore.merge import ABSENT, merge_join, merge_stores, sum_values, summed
from repro.ngramstore.reader import NGramStore
from repro.ngramstore.table import DEFAULT_CACHE_BLOCKS, BlockCache, TopKAccumulator

Record = Tuple[Any, Any]

#: The LSM directory's manifest file, listing the ordered generations.
#: (Upper-case on purpose: it is the marker distinguishing an LSM directory
#: from a plain single-store directory, whose manifest is ``store.json``.)
LSM_MANIFEST_FILENAME = "MANIFEST"

#: LSM manifest format version.
LSM_MANIFEST_VERSION = 1

#: Generation directory name pattern.
GENERATION_PATTERN = "gen-{index:05d}"

#: Size-tiered compaction defaults: a bucket of generations is compacted
#: when it holds at least ``DEFAULT_MIN_TIER`` members whose record counts
#: are within ``DEFAULT_TIER_RATIO``× of the bucket's smallest member.
DEFAULT_TIER_RATIO = 4
DEFAULT_MIN_TIER = 2


def is_lsm_dir(path: str) -> bool:
    """True when ``path`` is an LSM directory (has a generation MANIFEST)."""
    return os.path.isfile(os.path.join(str(path), LSM_MANIFEST_FILENAME))


def _store_config_to_json(store: StoreConfig) -> Dict[str, Any]:
    config = asdict(store)
    # A generation is always built at τ=1 (the tree's τ applies at
    # compaction), so the layout dict must not smuggle a threshold in.
    config.pop("min_frequency", None)
    return config


class LSMStore:
    """An LSM directory: ordered store generations plus their MANIFEST.

    The manifest is the single source of truth for which generations are
    live; every mutation (ingest, compact) builds the new generation first
    and swaps the manifest in atomically last, so a crash mid-operation
    leaves at worst an orphan directory that the next build of the same
    name clears — never a manifest naming a half-written store.
    """

    def __init__(self, root: str, manifest: Dict[str, Any]) -> None:
        self.root = str(root)
        self.manifest = manifest

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def init(
        cls,
        root: str,
        min_frequency: int = 1,
        max_length: Optional[int] = None,
        algorithm: str = "SUFFIX-SIGMA",
        store: Optional[StoreConfig] = None,
    ) -> "LSMStore":
        """Create an empty LSM directory at ``root``.

        ``min_frequency`` is the tree's serving threshold τ, applied when
        generations are compacted; ``store`` fixes the table layout every
        generation is built with (partitions, codec, block size, blooms).
        """
        root = str(root)
        if is_lsm_dir(root):
            raise StoreError(f"{root!r} is already an LSM store directory")
        if os.path.isfile(os.path.join(root, "store.json")):
            raise StoreError(
                f"{root!r} holds a plain store; an LSM store needs its own directory"
            )
        min_frequency = validated_min_frequency(min_frequency)
        os.makedirs(root, exist_ok=True)
        store = store if store is not None else StoreConfig()
        manifest = {
            "version": LSM_MANIFEST_VERSION,
            "min_frequency": min_frequency,
            "max_length": max_length,
            "algorithm": algorithm,
            "store": _store_config_to_json(store),
            "next_generation": 0,
            "generations": [],
        }
        lsm = cls(root, manifest)
        lsm._write_manifest()
        return lsm

    @classmethod
    def open(cls, root: str) -> "LSMStore":
        """Open an existing LSM directory."""
        root = str(root)
        path = os.path.join(root, LSM_MANIFEST_FILENAME)
        if not os.path.isfile(path):
            raise StoreError(
                f"no LSM manifest ({LSM_MANIFEST_FILENAME}) in {root!r}; "
                "create one with `repro ingest --init` or LSMStore.init"
            )
        manifest = read_manifest_file(path)
        version = manifest.get("version")
        if version != LSM_MANIFEST_VERSION:
            raise StoreError(
                f"unsupported LSM manifest version {version!r} "
                f"(expected {LSM_MANIFEST_VERSION})"
            )
        return cls(root, manifest)

    def _write_manifest(self) -> None:
        """Atomic manifest swap: readers see the old or the new list, never half."""
        path = os.path.join(self.root, LSM_MANIFEST_FILENAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.manifest, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)

    # ----------------------------------------------------------- properties
    @property
    def min_frequency(self) -> int:
        return int(self.manifest["min_frequency"])

    @property
    def generations(self) -> List[Dict[str, Any]]:
        return list(self.manifest["generations"])

    @property
    def num_records(self) -> int:
        """Main-table records summed over the live generations."""
        return sum(int(entry["num_records"]) for entry in self.manifest["generations"])

    def store_config(self) -> StoreConfig:
        return StoreConfig(**self.manifest["store"])

    def generation_dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    # ------------------------------------------------------------ ingestion
    def _check_vocabulary(self, vocabulary: Any) -> None:
        """New batches must be encoded against the tree's shared dictionary.

        Generation keys are term-identifier tuples; summing them across
        generations is only meaningful when every batch used the same
        term-id mapping.  The first vocabulary-bearing generation fixes the
        dictionary; later batches must match it line for line (the corpus
        tooling achieves this by slicing one encoded collection, or by
        encoding deltas against the saved dictionary).
        """
        if vocabulary is None:
            return
        for entry in self.manifest["generations"]:
            lines = read_dictionary(self.generation_dir(entry["name"]))
            if lines is not None:
                shared_vocabulary(
                    [
                        (f"generation {entry['name']!r}", lines),
                        ("ingest batch", vocabulary.to_lines()),
                    ]
                )
                return

    def _register_generation(
        self, name: str, source: Optional[str], min_frequency: int
    ) -> Dict[str, Any]:
        store = NGramStore.open(self.generation_dir(name))
        try:
            entry = {
                "name": name,
                "num_records": store.num_records,
                "min_frequency": min_frequency,
                "source": source,
            }
        finally:
            store.close()
        self.manifest["generations"].append(entry)
        self.manifest["next_generation"] = int(self.manifest["next_generation"]) + 1
        self._write_manifest()
        return entry

    def _next_generation_name(self) -> str:
        return GENERATION_PATTERN.format(index=int(self.manifest["next_generation"]))

    def ingest(
        self,
        collection: Any,
        source: Optional[str] = None,
        execution: Optional[ExecutionConfig] = None,
        algorithm: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Count ``collection`` into a new τ=1 delta generation.

        The batch is counted with the tree's algorithm and σ but at τ=1 —
        every count is kept, so compaction can apply the tree's τ to exact
        union counts.  Returns the new generation's manifest entry.
        """
        from repro.algorithms import make_counter
        from repro.config import NGramJobConfig

        self._check_vocabulary(getattr(collection, "vocabulary", None))
        config = NGramJobConfig(
            min_frequency=1, max_length=self.manifest.get("max_length")
        )
        counter = make_counter(
            algorithm or str(self.manifest["algorithm"]), config, execution=execution
        )
        name = self._next_generation_name()
        counter.run(
            collection,
            store_dir=self.generation_dir(name),
            store=self.store_config(),
        )
        return self._register_generation(name, source, min_frequency=1)

    def ingest_records(
        self,
        records: Any,
        vocabulary: Optional[Any] = None,
        source: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Low-level ingest: write pre-counted τ=1 records as a generation.

        ``records`` is an iterable of ``(ngram, count)`` with *raw* (τ=1)
        counts for one document batch — the programmatic twin of
        :meth:`ingest` for callers that already ran a counting job.
        """
        self._check_vocabulary(vocabulary)
        name = self._next_generation_name()
        batch_metadata = {"min_frequency": 1}
        if metadata:
            batch_metadata.update(metadata)
        build_store(
            records,
            self.generation_dir(name),
            store=self.store_config(),
            metadata=batch_metadata,
            vocabulary=vocabulary,
            name=name,
        )
        return self._register_generation(name, source, min_frequency=1)

    # ----------------------------------------------------------- compaction
    def plan_compaction(
        self,
        tier_ratio: int = DEFAULT_TIER_RATIO,
        min_tier: int = DEFAULT_MIN_TIER,
    ) -> List[str]:
        """Generation names the size-tiered policy would compact now.

        Generations are bucketed smallest-first: a generation joins the
        current bucket while its record count is within ``tier_ratio``× of
        the bucket's smallest member.  The first bucket with at least
        ``min_tier`` members is the compaction victim set — merging
        similarly-sized runs keeps every record's rewrite count
        logarithmic in the tree's total size.
        """
        if tier_ratio < 1:
            raise StoreError(f"tier_ratio must be >= 1, got {tier_ratio}")
        if min_tier < 2:
            raise StoreError(f"min_tier must be >= 2, got {min_tier}")
        ordered = sorted(
            self.manifest["generations"], key=lambda entry: int(entry["num_records"])
        )
        bucket: List[Dict[str, Any]] = []
        for entry in ordered:
            if not bucket:
                bucket = [entry]
                continue
            floor = max(1, int(bucket[0]["num_records"]))
            if int(entry["num_records"]) <= tier_ratio * floor:
                bucket.append(entry)
            elif len(bucket) >= min_tier:
                break
            else:
                bucket = [entry]
        if len(bucket) >= min_tier:
            return [entry["name"] for entry in bucket]
        return []

    def compact(
        self,
        all_generations: bool = False,
        tier_ratio: int = DEFAULT_TIER_RATIO,
        min_tier: int = DEFAULT_MIN_TIER,
    ) -> Optional[Dict[str, Any]]:
        """Fold generations through the exact store merge; returns stats.

        Victims come from :meth:`plan_compaction` (or are *all* live
        generations with ``all_generations=True``); they merge into a new
        generation thresholded at the tree's τ — counts ``>= τ`` in the
        main table, the rest in its residual sidecar, so the output stays
        residual-exact for every later compaction.  The manifest swaps
        atomically after the merge; the victim directories are removed
        last.  Returns ``None`` when the policy finds nothing to compact.
        """
        if all_generations:
            victims = [entry["name"] for entry in self.manifest["generations"]]
            if not victims:
                return None
            if len(victims) == 1 and not self._needs_threshold(victims):
                return None
        else:
            victims = self.plan_compaction(tier_ratio=tier_ratio, min_tier=min_tier)
            if not victims:
                return None
        started = time.perf_counter()
        victim_set = set(victims)
        records_in = sum(
            int(entry["num_records"])
            for entry in self.manifest["generations"]
            if entry["name"] in victim_set
        )
        name = self._next_generation_name()
        merge_stores(
            [self.generation_dir(victim) for victim in victims],
            self.generation_dir(name),
            store=self.store_config(),
            min_frequency=self.min_frequency,
        )
        survivors = [
            entry
            for entry in self.manifest["generations"]
            if entry["name"] not in victim_set
        ]
        generations_before = len(self.manifest["generations"])
        merged = NGramStore.open(self.generation_dir(name))
        try:
            entry = {
                "name": name,
                "num_records": merged.num_records,
                "min_frequency": self.min_frequency,
                "source": f"compaction of {len(victims)} generations",
            }
        finally:
            merged.close()
        self.manifest["generations"] = survivors + [entry]
        self.manifest["next_generation"] = int(self.manifest["next_generation"]) + 1
        self._write_manifest()
        for victim in victims:
            shutil.rmtree(self.generation_dir(victim), ignore_errors=True)
        return {
            "merged": victims,
            "output": name,
            "records_in": records_in,
            "records_out": entry["num_records"],
            "min_frequency": self.min_frequency,
            "elapsed_seconds": time.perf_counter() - started,
            "generations_before": generations_before,
            "generations_after": len(self.manifest["generations"]),
        }

    def _needs_threshold(self, victims: List[str]) -> bool:
        """A single-generation ``--all`` still compacts if τ was never applied."""
        if len(victims) != 1:
            return True
        entry = self.manifest["generations"][0]
        return int(entry.get("min_frequency", 1)) != self.min_frequency

    # -------------------------------------------------------------- serving
    def view(
        self,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        cache: Optional[BlockCache] = None,
        use_mmap: bool = True,
    ) -> "GenerationView":
        """Open the live generations for querying (see :class:`GenerationView`)."""
        return GenerationView(self, cache_blocks=cache_blocks, cache=cache, use_mmap=use_mmap)


class GenerationView(StoreAPI):
    """``StoreAPI`` over an LSM directory's live generations.

    Opens every generation listed in the MANIFEST at construction time
    (later ingests need a reopen to become visible — immutability is what
    makes the open generations safe to serve concurrently) and answers
    queries by *summing* main-table counts across generations: each corpus
    batch was counted exactly once, so the sum is the union count.  All
    generations read through one shared LRU block cache, exactly like the
    multi-store serving processes do.
    """

    def __init__(
        self,
        lsm: LSMStore,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        cache: Optional[BlockCache] = None,
        use_mmap: bool = True,
    ) -> None:
        self.lsm = lsm
        self.store_dir = lsm.root
        # One cache across every generation: a view over k generations
        # should not cost k× the configured cache budget.
        self.cache = cache if cache is not None else BlockCache(cache_blocks)
        self.stores: List[NGramStore] = []
        try:
            for entry in lsm.manifest["generations"]:
                self.stores.append(
                    NGramStore.open(
                        lsm.generation_dir(entry["name"]),
                        cache=self.cache,
                        use_mmap=use_mmap,
                    )
                )
        except Exception:
            self.close()
            raise
        self._closed = False

    # ----------------------------------------------------------- properties
    @property
    def manifest(self) -> Dict[str, Any]:
        return self.lsm.manifest

    @property
    def num_records(self) -> int:
        return sum(store.num_records for store in self.stores)

    @property
    def num_partitions(self) -> int:
        return sum(store.num_partitions for store in self.stores)

    @property
    def vocabulary(self) -> Optional[Any]:
        for store in self.stores:
            if store.manifest.get("has_vocabulary"):
                return store.vocabulary
        return None

    def cache_stats(self) -> Any:
        return self.cache.stats_snapshot()

    def io_stats(self) -> Dict[str, Any]:
        """Read-path counters summed over every generation."""
        totals: Dict[str, Any] = {}
        for store in self.stores:
            for field, value in store.io_stats().items():
                totals[field] = totals.get(field, 0) + value
        return totals

    # ------------------------------------------------------------ internals
    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"LSM view over {self.store_dir!r} is closed")

    # ------------------------------------------------------------- queries
    def get(self, ngram: Any, default: Any = None) -> Any:
        """Point lookup summed across generations."""
        self._check_open()
        key = tuple(ngram)
        found = [store.get(key, ABSENT) for store in self.stores]
        found = [value for value in found if value is not ABSENT]
        return sum_values(key, found) if found else default

    def scan(self, start: Any = None, stop: Any = None) -> Iterator[Record]:
        """Merged scan: the generations' streams merge-joined, duplicate keys summed."""
        self._check_open()
        return summed(merge_join(store.scan(start=start, stop=stop) for store in self.stores))

    def top_k_into(self, accumulator: TopKAccumulator) -> None:
        """Exact top-k candidates over the *summed* counts.

        A single generation delegates to the store's block-skipping pass;
        with several, per-generation summaries do not bound the summed
        value, so the merged scan is offered record by record.
        """
        if len(self.stores) == 1:
            self.stores[0].top_k_into(accumulator)
        else:
            super().top_k_into(accumulator)

    def stats(self) -> Dict[str, Any]:
        """LSM-level stats in the canonical ``StoreAPI`` shape."""
        self._check_open()
        codecs = {store.codec_name for store in self.stores}
        return {
            "store_dir": self.store_dir,
            "num_records": self.num_records,
            "num_partitions": self.num_partitions,
            "codec": codecs.pop() if len(codecs) == 1 else "mixed",
            "has_vocabulary": self.vocabulary is not None,
            "metadata": {
                "min_frequency": self.lsm.min_frequency,
                "max_length": self.lsm.manifest.get("max_length"),
                "algorithm": self.lsm.manifest.get("algorithm"),
                "lsm": {
                    "num_generations": len(self.stores),
                    "generations": [
                        dict(entry) for entry in self.lsm.manifest["generations"]
                    ],
                },
            },
        }

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for store in self.stores:
            store.close()
        self.stores = []


def open_store_auto(
    path: str,
    cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    cache: Optional[BlockCache] = None,
    use_mmap: bool = True,
) -> StoreAPI:
    """Open ``path`` as whatever kind of store directory it is.

    An LSM directory (generation ``MANIFEST``) opens as a
    :class:`GenerationView`; anything else opens as a plain
    :class:`~repro.ngramstore.reader.NGramStore` — so every consumer
    (``repro query``/``serve``/``loadgen``, the servers' constructors)
    serves batch-built and incrementally-ingested stores through one call.
    """
    if is_lsm_dir(path):
        return LSMStore.open(path).view(
            cache_blocks=cache_blocks, cache=cache, use_mmap=use_mmap
        )
    return NGramStore.open(
        str(path), cache_blocks=cache_blocks, cache=cache, use_mmap=use_mmap
    )

"""Store merging, on the one merge-join kernel every multi-store stream uses.

**The kernel.** :func:`merge_join` walks ``k`` key-sorted record streams at
once and yields every key with its values *by input* (:data:`ABSENT` where
an input lacks the key): one ``heapq.merge`` plus one ``groupby``, so no
per-record heap loop runs in Python.  Three small combine functions sit on
top — :func:`summed` (a key's values added by :func:`sum_values`, the one
duplicate-key sum of the store layer), :func:`difference` ("A and not B")
and :func:`intersection` ("A and B").  The store merge below, the LSM
view's scan and point lookup (:mod:`repro.ngramstore.lsm`) and the
cross-store analytics (:mod:`repro.ngramstore.analytics`) are each a kernel
call plus one combine.

**The merge.** Each input store streams its records in global key order
(the reader chains its sorted, disjoint partitions), so merging stores is
``summed(merge_join(...))`` written by one
:class:`~repro.ngramstore.build.StoreWriter` — the LSM/SSTable compaction
idiom, and the MapReduce-free analogue of re-running the total-order-sort
job over the union.  Partition boundaries come from
:func:`plan_store_boundaries`: the inputs' block-index first keys (a
records-proportional sample that costs zero data-block reads) fed to the
same quantile planning the build job uses, so the output's partitioning
reflects the merged key distribution, not any single input's.  Nothing is
materialised: planning reads only the block indexes, and the merge itself
is one streaming pass over the inputs.

**Exactness at any τ.**  Raw (τ=1) counts are additive across a document
partition, so τ=1 stores always merge exactly.  A τ>1 store merges exactly
when it carries its *residual* sidecar table (counts in ``[1, τ)``, written
by builds with ``StoreConfig(min_frequency=τ)``): the merge streams main
and residual together per input — recovering each shard's full count
table — sums duplicates, and the writer routes summed counts ``>= τ`` to
the merged main store and the rest to a merged residual, so a key locally
under τ in every shard still surfaces when its union count crosses τ.
Legacy τ>1 stores *without* residuals dropped those counts at count time;
merging k ≥ 2 of them can only produce a lower bound on a union recount, so
the merge refuses unless ``allow_lower_bound`` is passed, which stamps the
output's metadata with ``counts: lower_bound`` so the claim travels with
the store.
"""

from __future__ import annotations

import heapq
import os
import warnings
from functools import reduce
from itertools import chain, groupby, islice, repeat
from operator import add, itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import StoreConfig
from repro.exceptions import StoreError
from repro.ngramstore.build import (
    StoreWriter,
    plan_boundaries,
    read_dictionary,
    shared_vocabulary,
    validated_min_frequency,
)
from repro.ngramstore.reader import NGramStore

Record = Tuple[Any, Any]
Joined = Iterable[Tuple[Any, List[Any]]]

#: What :func:`merge_join` reports for an input that does not hold a key.
ABSENT = object()

_FIRST = itemgetter(0)


def merge_join(streams: Iterable[Iterable[Record]]) -> Iterator[Tuple[Any, List[Any]]]:
    """Yield ``(key, values_by_input)`` over k key-sorted record streams.

    Every key of any input is yielded once, in key order, with a list whose
    ``i``-th entry is input ``i``'s value for it, or :data:`ABSENT`.  Records
    are ``(key, value)`` tuples with keys unique within each stream (a
    store's are).  Each record is tagged with its input's position by a
    C-level ``map``; ``heapq.merge`` is stable, so a key's values arrive in
    input order, and ``groupby`` cuts the merged stream into keys.
    """
    streams = list(streams)
    if len(streams) == 1:
        return ((key, [value]) for key, value in streams[0])
    tagged = (map(add, stream, repeat((index,))) for index, stream in enumerate(streams))
    return _by_input(groupby(heapq.merge(*tagged, key=_FIRST), key=_FIRST), len(streams))


def _by_input(groups: Iterator[Tuple[Any, Iterator[Tuple]]], width: int) -> Iterator:
    for key, group in groups:
        values = [ABSENT] * width
        for _, value, index in group:
            values[index] = value
        yield key, values


def sum_values(key: Any, values: List[Any]) -> Any:
    """The one duplicate-key sum: ``values`` added with ``+`` in input order.

    Integer frequencies sum; values that do not support addition (e.g.
    time-series payloads) make a duplicate a :class:`StoreError` instead of
    silently dropping data.
    """
    if len(values) == 1:
        return values[0]
    try:
        return reduce(add, values)
    except TypeError as exc:
        raise StoreError(
            f"cannot merge duplicate key {key!r}: its {len(values)} values "
            f"do not support addition ({exc})"
        ) from exc


def summed(joined: Joined) -> Iterator[Record]:
    """Combine: every key once, its present values summed by :func:`sum_values`."""
    for key, values in joined:
        yield key, sum_values(key, [value for value in values if value is not ABSENT])


def difference(joined: Joined) -> Iterator[Record]:
    """Combine: the keys only the first input holds, with its value ("A and not B")."""
    for key, (first, *rest) in joined:
        if first is not ABSENT and all(value is ABSENT for value in rest):
            yield key, first


def intersection(joined: Joined) -> Iterator[Record]:
    """Combine: the keys every input holds, with the values by input ("A and B")."""
    for key, values in joined:
        if all(value is not ABSENT for value in values):
            yield key, values


def plan_store_boundaries(stores: List[NGramStore], store: StoreConfig) -> List[Any]:
    """Partition boundaries for a store written from ``stores``' merged keys.

    Every table's index carries one first key per block, so the union of
    the inputs' block first keys is a records-proportional sample of the
    merged key space — no data block is decoded to plan boundaries, which
    keeps a merge a single streaming pass over block payloads.  Small
    stores (fewer blocks than ~8 keys per requested partition) are too
    coarse for quantiles at that granularity; they fall back to a strided
    sample of every input record, whose extra pass is cheap precisely
    because the stores are small.  Either way the sample is strided down to
    ``store.sample_size`` keys and planned by :func:`plan_boundaries`, the
    build job's quantile planner.
    """
    sample_size = store.sample_size
    keys = sorted(chain.from_iterable(source.block_first_keys() for source in stores))
    if len(keys) < min(sample_size, 8 * store.num_partitions):
        stride = max(1, -(-sum(len(source) for source in stores) // sample_size))
        records = chain.from_iterable(
            repeat(key, sum(value is not ABSENT for value in values))
            for key, values in merge_join(source.items() for source in stores)
        )
        keys = list(islice(records, 0, None, stride))
    elif len(keys) > sample_size:
        keys = keys[:: -(-len(keys) // sample_size)]
    return plan_boundaries(keys, store.num_partitions)


def residual_exact(store: NGramStore) -> bool:
    """Can this input contribute *exact* union counts to a merge?

    True for τ=1 stores (raw counts are additive) and for τ>1 stores that
    carry their residual sidecar — unless the store is itself the product
    of an ``allow_lower_bound`` merge, whose ``counts: lower_bound`` stamp
    poisons every downstream merge.
    """
    if store.metadata.get("counts") == "lower_bound":
        return False
    return store.min_frequency <= 1 or store.has_residual


def store_vocabulary(stores: Iterable[NGramStore]) -> Optional[List[str]]:
    """The dictionary the vocabulary-bearing ``stores`` share, or None.

    :func:`~repro.ngramstore.build.shared_vocabulary` over the dictionaries
    of the stores whose manifests say they persisted one.
    """
    return shared_vocabulary(
        (
            repr(open_store.store_dir),
            read_dictionary(open_store.store_dir)
            if open_store.manifest.get("has_vocabulary")
            else None,
        )
        for open_store in stores
    )


def _merged_metadata(
    inputs: List[str],
    stores: List[NGramStore],
    metadata: Optional[Dict[str, Any]],
    overrides: Dict[str, Any],
) -> Dict[str, Any]:
    """Manifest metadata for the merged store.

    Entries every input agrees on (same key, same value) are carried over —
    e.g. the algorithm/τ/σ of identical per-shard counting runs — and the
    merge records its own provenance.  Derived statistics get merge-aware
    treatment instead of naive carry-over: ``unigram_total`` *sums* (every
    unigram frequency sums, so the language model's O(1) initialisation
    stays exact) and ``num_ngrams`` is dropped (duplicates collapse; the
    manifest's own ``num_records`` is the authoritative count).  A ``bool``
    is not a total (it would sum as 0/1), and when only *some* inputs carry
    a usable total the field is dropped with a warning — a silently absent
    total sends ``NGramLanguageModel.from_store`` into a full store scan.
    ``overrides`` are values the merge itself computed exactly (e.g. the
    writer's unigram aggregates); explicit ``metadata`` wins over everything.
    """
    merged: Dict[str, Any] = {}
    first, rest = stores[0].metadata, [store.metadata for store in stores[1:]]
    for key, value in first.items():
        if key in ("unigram_total", "num_ngrams"):
            continue
        if all(other.get(key, ABSENT) == value for other in rest):
            merged[key] = value
    if "unigram_total" not in overrides:
        unigram_totals = [store.metadata.get("unigram_total") for store in stores]
        usable = [
            total
            for total in unigram_totals
            if isinstance(total, (int, float)) and not isinstance(total, bool)
        ]
        if usable and len(usable) == len(stores):
            merged["unigram_total"] = sum(usable)
        elif any(total is not None for total in unigram_totals):
            missing = [
                os.path.basename(os.path.normpath(path))
                for path, total in zip(inputs, unigram_totals)
                if not isinstance(total, (int, float)) or isinstance(total, bool)
            ]
            warnings.warn(
                f"dropping unigram_total from merged store metadata: inputs "
                f"{missing} carry no usable total (missing, boolean, or "
                "non-numeric), so the sum would be wrong; language models over "
                "the merged store will fall back to a unigram scan",
                stacklevel=2,
            )
    merged["merged_inputs"] = [os.path.basename(os.path.normpath(path)) for path in inputs]
    merged["merged_num_inputs"] = len(inputs)
    merged.update(overrides)
    if metadata:
        merged.update(metadata)
    return merged


def merge_stores(
    inputs: Iterable[str],
    out_dir: str,
    store: Optional[StoreConfig] = None,
    metadata: Optional[Dict[str, Any]] = None,
    min_frequency: Optional[int] = None,
    allow_lower_bound: bool = False,
) -> str:
    """Merge the store directories ``inputs`` into a new store at ``out_dir``.

    ``store`` controls the output layout (partitions, codec, block size,
    boundary sample size) exactly as it does for
    :func:`~repro.ngramstore.build.build_store`; inputs may use any mix of
    codecs and partition counts.

    When every input is *residual-exact* (τ=1, or τ>1 with a residual
    sidecar), the merge streams main+residual per input and re-applies the
    output threshold ``min_frequency`` (default: the largest input τ) to
    the summed counts, writing a merged residual sidecar of its own — the
    result is byte-for-byte what a from-scratch recount of the union corpus
    would produce, at any τ.  Inputs that declare ``min_frequency`` > 1 but
    carry no residual cannot merge exactly (their sub-τ counts are gone);
    merging two or more of them raises :class:`StoreError` unless
    ``allow_lower_bound=True``, which keeps the legacy sum-the-survivors
    behaviour and stamps ``counts: lower_bound`` into the merged metadata.
    A single such input is a pure repartition (no summing), which is always
    allowed and carries its metadata unchanged.

    Returns ``out_dir``.
    """
    input_dirs = [str(path) for path in inputs]
    if not input_dirs:
        raise StoreError("merge_stores needs at least one input store")
    for path in input_dirs:
        if os.path.abspath(path) == os.path.abspath(out_dir):
            raise StoreError(f"merge output {out_dir!r} cannot be one of the inputs")
    store = store if store is not None else StoreConfig()
    if min_frequency is not None:
        min_frequency = validated_min_frequency(min_frequency)

    opened = [NGramStore.open(path) for path in input_dirs]
    try:
        inexact = [
            path
            for path, open_store in zip(input_dirs, opened)
            if not residual_exact(open_store)
        ]
        exact = not inexact
        lower_bound = not exact and len(opened) > 1
        if lower_bound and not allow_lower_bound:
            raise StoreError(
                f"cannot merge exactly: {inexact[0]!r} declares "
                f"min_frequency > 1 but carries no residual table, so its "
                "counts in [1, τ) were dropped at count time and the merged "
                "counts would silently undercount the union; rebuild the "
                "shards with a residual sidecar (count at τ=1 with "
                "StoreConfig(min_frequency=τ)), or pass "
                "allow_lower_bound=True to keep the old behaviour and stamp "
                "the output metadata with counts=lower_bound"
            )
        if not exact and min_frequency is not None:
            raise StoreError(
                "cannot apply a merge min_frequency without residual tables: "
                f"{inexact[0]!r} carries no sub-τ counts to threshold against"
            )

        out_tau = 1
        sampled = list(opened)
        if exact:
            out_tau = (
                min_frequency
                if min_frequency is not None
                else max(open_store.min_frequency for open_store in opened)
            )
            sampled.extend(
                open_store.residual
                for open_store in opened
                if open_store.residual is not None
            )
        vocabulary_lines = store_vocabulary(opened)
        writer = StoreWriter(out_dir, store, plan_store_boundaries(sampled, store), out_tau)
        # The single streaming pass.  An exact merge recovers each input's
        # full count table (main + residual); the writer re-splits the sums
        # at the output τ.
        writer.write(
            summed(
                merge_join(
                    open_store.exact_items() if exact else open_store.items()
                    for open_store in opened
                )
            )
        )

        overrides: Dict[str, Any] = {}
        if lower_bound:
            overrides["counts"] = "lower_bound"
        elif out_tau > 1:
            # The full stream passed through the writer, so the unigram
            # aggregates the language model needs are exact for free.
            overrides.update(
                num_ngrams=writer.num_records + writer.residual_records,
                unigram_total=writer.unigram_total,
                vocabulary_size=writer.vocabulary_size,
            )
        elif exact and any("min_frequency" in open_store.metadata for open_store in opened):
            overrides["min_frequency"] = out_tau
        writer.commit(_merged_metadata(input_dirs, opened, metadata, overrides), vocabulary_lines)
    finally:
        for open_store in opened:
            open_store.close()
    return out_dir

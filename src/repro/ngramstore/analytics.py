"""Cross-store analytics: streaming diff and intersect of two stores.

The tacl-style text-reuse workloads — "which n-grams are unique to corpus
A?" (*diff*) and "which n-grams do corpora A and B share, and how often?"
(*intersect*) — are both one ordered merge-join over two stores: the store
merge's kernel (:func:`~repro.ngramstore.merge.merge_join`) with its "A and
not B" (:func:`~repro.ngramstore.merge.difference`) or "A and B"
(:func:`~repro.ngramstore.merge.intersection`) combine.  Each store streams
its records in global key order, so the join visits every key of either
store exactly once, with O(1) memory and zero index lookups.  The scans run
over :meth:`~repro.ngramstore.reader.NGramStore.exact_items`, i.e. main
table *plus* residual sidecar, so a τ>1 store contributes its full count
table: "absent from B" means *really* absent, not merely below B's serving
threshold.  Stores that declare τ>1 but carry no residual (legacy builds)
cannot make that claim — their sub-τ counts were dropped at count time — so
they are refused unless the caller opts into ``allow_thresholded=True``,
mirroring the merge's lower-bound guard.

Both analytics come in two shapes:

* **record streams** — :func:`diff_records` / :func:`intersect_records`
  yield :class:`~repro.ngramstore.api.NGramRecord` lazily, for pipelines
  and the CLI's stdout mode;
* **store directories** — :func:`diff_stores` / :func:`intersect_stores`
  write the result through the one
  :class:`~repro.ngramstore.build.StoreWriter` every build and merge uses
  (same manifest/partition/table format), so a diff or intersection is
  itself queryable, serveable, and mergeable like any other store.

Record values: a diff record carries A's count; an intersect record
carries ``[count_a, count_b]`` (a list, so the value survives JSON wire
round trips unchanged).  Keys are term-id tuples, and ids are only
comparable across stores encoded against the same dictionary — inputs
that persisted vocabularies must agree line-for-line, exactly as in
:func:`~repro.ngramstore.merge.merge_stores`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.config import StoreConfig
from repro.exceptions import StoreError
from repro.ngramstore.api import NGramRecord
from repro.ngramstore.build import StoreWriter, count_reaches, validated_min_frequency
from repro.ngramstore.merge import (
    difference,
    intersection,
    merge_join,
    plan_store_boundaries,
    residual_exact,
    store_vocabulary,
)
from repro.ngramstore.reader import NGramStore

StoreInput = Union[str, NGramStore]

#: The combine function of each analytics kind, the kind being what an
#: output store's manifest metadata records.
_COMBINES = {"diff": difference, "intersect": intersection}


def _open_pair(
    a: StoreInput, b: StoreInput
) -> Tuple[NGramStore, NGramStore, List[NGramStore]]:
    """Open both inputs; returns (a, b, stores-we-opened-and-must-close)."""
    owned: List[NGramStore] = []
    stores: List[NGramStore] = []
    try:
        for source in (a, b):
            if isinstance(source, NGramStore):
                stores.append(source)
            else:
                opened = NGramStore.open(str(source))
                owned.append(opened)
                stores.append(opened)
    except Exception:
        for opened in owned:
            opened.close()
        raise
    return stores[0], stores[1], owned


def _check_comparable(
    store_a: NGramStore, store_b: NGramStore, allow_thresholded: bool
) -> Optional[List[str]]:
    """Refuse comparisons that cannot be exact; returns the shared vocabulary.

    A τ>1 store without a residual sidecar streams a *filtered* view, so
    "absent from B" (diff) or "shared count" (intersect) claims would be
    wrong below τ.  ``allow_thresholded`` keeps the comparison over the
    serving views for callers who want exactly that.  Vocabulary agreement
    is checked the same way the merge checks it: persisted dictionaries
    must match line-for-line, else the id-keyed join would compare
    unrelated n-grams.
    """
    for open_store in (store_a, store_b):
        if not residual_exact(open_store) and not allow_thresholded:
            raise StoreError(
                f"cannot compare exactly: {open_store.store_dir!r} declares "
                f"min_frequency={open_store.min_frequency} but carries no "
                "residual table (or is stamped counts=lower_bound), so keys "
                "below its threshold are missing from its stream; rebuild "
                "with a residual sidecar, or pass allow_thresholded=True "
                "(--allow-thresholded) to compare the serving views as-is"
            )
    return store_vocabulary([store_a, store_b])


def _records(
    kind: str,
    a: StoreInput,
    b: StoreInput,
    min_frequency: int,
    allow_thresholded: bool,
) -> Iterator[NGramRecord]:
    """The ``kind`` join of ``a`` and ``b``, keeping counts ``>= min_frequency``."""
    min_frequency = validated_min_frequency(min_frequency)
    store_a, store_b, owned = _open_pair(a, b)
    try:
        _check_comparable(store_a, store_b, allow_thresholded)
        joined = merge_join([store_a.exact_items(), store_b.exact_items()])
        for key, value in _COMBINES[kind](joined):
            counts = value if kind == "intersect" else [value]
            if min_frequency > 1 and not all(
                count_reaches(key, count, min_frequency) for count in counts
            ):
                continue
            yield NGramRecord(key, value)
    finally:
        for opened in owned:
            opened.close()


def diff_records(
    a: StoreInput,
    b: StoreInput,
    min_frequency: int = 1,
    allow_thresholded: bool = False,
) -> Iterator[NGramRecord]:
    """Stream the n-grams of ``a`` absent from ``b``, in key order.

    Each yielded record carries A's exact count.  ``min_frequency`` keeps
    only diff records whose A-count reaches the bound (τ-filtering the
    *analysis*, not the inputs).  Inputs are store directories or opened
    stores; directories are opened for the duration of the stream.
    """
    return _records("diff", a, b, min_frequency, allow_thresholded)


def intersect_records(
    a: StoreInput,
    b: StoreInput,
    min_frequency: int = 1,
    allow_thresholded: bool = False,
) -> Iterator[NGramRecord]:
    """Stream the n-grams shared by ``a`` and ``b`` with per-store counts.

    Each yielded record's value is ``[count_a, count_b]``.
    ``min_frequency`` keeps only keys reaching the bound in *both* stores.
    """
    return _records("intersect", a, b, min_frequency, allow_thresholded)


def _write_analytics_store(
    kind: str,
    a: StoreInput,
    b: StoreInput,
    out_dir: str,
    store: Optional[StoreConfig],
    metadata: Optional[Dict[str, Any]],
    min_frequency: int,
    allow_thresholded: bool,
) -> str:
    min_frequency = validated_min_frequency(min_frequency)
    store = store if store is not None else StoreConfig()
    store_a, store_b, owned = _open_pair(a, b)
    try:
        for open_store in (store_a, store_b):
            if os.path.abspath(open_store.store_dir) == os.path.abspath(out_dir):
                raise StoreError(
                    f"analytics output {out_dir!r} cannot be one of the inputs"
                )
        vocabulary_lines = _check_comparable(store_a, store_b, allow_thresholded)

        # The result's keys are a subset of A's keys (diff and intersect
        # alike), so A's block-index first keys — plus its residual's, which
        # exact_items() also streams — sample the output key distribution.
        sampled = [store_a] if store_a.residual is None else [store_a, store_a.residual]
        writer = StoreWriter(out_dir, store, plan_store_boundaries(sampled, store))
        writer.write(_records(kind, store_a, store_b, min_frequency, allow_thresholded))
        combined: Dict[str, Any] = {
            "analytics": kind,
            "analytics_inputs": [
                os.path.basename(os.path.normpath(store_a.store_dir)),
                os.path.basename(os.path.normpath(store_b.store_dir)),
            ],
            "analytics_min_frequency": min_frequency,
        }
        if metadata:
            combined.update(metadata)
        writer.commit(combined, vocabulary_lines)
    finally:
        for opened in owned:
            opened.close()
    return out_dir


def diff_stores(
    a: StoreInput,
    b: StoreInput,
    out_dir: str,
    store: Optional[StoreConfig] = None,
    metadata: Optional[Dict[str, Any]] = None,
    min_frequency: int = 1,
    allow_thresholded: bool = False,
) -> str:
    """Write the diff of ``a`` minus ``b`` as a store directory.

    The output is a regular store (record value = A's count): queryable
    with ``repro query``, serveable, and a valid merge input.  Its manifest
    metadata records the provenance (``analytics``/``analytics_inputs``/
    ``analytics_min_frequency``) and the shared vocabulary — when the
    inputs persisted one — is carried so term-keyed queries keep working.
    Returns ``out_dir``.
    """
    return _write_analytics_store(
        "diff", a, b, out_dir, store, metadata, min_frequency, allow_thresholded
    )


def intersect_stores(
    a: StoreInput,
    b: StoreInput,
    out_dir: str,
    store: Optional[StoreConfig] = None,
    metadata: Optional[Dict[str, Any]] = None,
    min_frequency: int = 1,
    allow_thresholded: bool = False,
) -> str:
    """Write the intersection of ``a`` and ``b`` as a store directory.

    Record values are ``[count_a, count_b]`` lists, so frequency-ordered
    ``top_k`` does not apply to an intersection store (key order does);
    point lookups and prefix scans work unchanged.  Returns ``out_dir``.
    """
    return _write_analytics_store(
        "intersect", a, b, out_dir, store, metadata, min_frequency, allow_thresholded
    )

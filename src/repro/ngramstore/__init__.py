"""NGramStore: sorted, block-compressed on-disk n-gram tables + query engine.

The paper computes n-gram statistics as a batch MapReduce job; this
subsystem is the *serving* half the ROADMAP's north star needs.  A counting
run's output is range-partitioned and sorted by a total-order-sort
MapReduce job (:mod:`repro.ngramstore.build`), each partition is written as
an immutable, block-compressed table (:mod:`repro.ngramstore.table`, format
in :mod:`repro.ngramstore.format`), and :class:`NGramStore`
(:mod:`repro.ngramstore.reader`) serves point/prefix/top-k queries over the
partitions with seek-based block reads and an LRU block cache — the
SSTable pattern that lets statistics far larger than RAM be queried with a
bounded memory footprint.

On top of the store sits the serving tier, unified behind one query
contract — :class:`StoreAPI` (:mod:`repro.ngramstore.api`), a small kernel
from which every operation is derived once, implemented by the local
store, both remote clients, and both distributed topologies.  One
:class:`~repro.ngramstore.service.StoreService` answers every request;
:class:`NGramStoreServer`/:class:`StoreClient`
(:mod:`repro.ngramstore.server`) frame it over a TCP socket,
:class:`NGramStoreHTTPServer`/:class:`HttpStoreClient`
(:mod:`repro.ngramstore.http`) over REST,
:class:`ReplicaPool`/:class:`ShardRouter`/:class:`ShardView`
(:mod:`repro.ngramstore.router`) scale reads across replicated and
range-sharded deployments, and :func:`merge_stores`
(:mod:`repro.ngramstore.merge`) compacts several stores into one with a
k-way merge-join of their sorted tables — exact at any τ thanks to
per-store residual sidecar tables — written by the same ``StoreWriter``
as every build.  :mod:`repro.ngramstore.analytics` reuses the same
merge-join kernel for cross-store analytics: :func:`diff_stores` /
:func:`intersect_stores` (and their streaming ``*_records`` twins) compare
two stores' exact tables and can write the result as a new queryable
store.  :mod:`repro.ngramstore.lsm` builds the
incremental-ingestion tier on top: :class:`LSMStore` manages ordered store
generations (``repro ingest`` / ``repro compact``) and
:class:`GenerationView` serves the live generations as one ``StoreAPI``,
so a store can absorb a rolling corpus while it is being queried.
"""

from repro.ngramstore.analytics import (
    diff_records,
    diff_stores,
    intersect_records,
    intersect_stores,
)
from repro.ngramstore.api import (
    DEFAULT_COMPLETE_K,
    Completion,
    NGramRecord,
    QueryEngine,
    StoreAPI,
    complete_scan,
)
from repro.ngramstore.build import (
    RangePartitioner,
    build_store,
    load_manifest,
    plan_boundaries,
    sample_keys,
    total_order_sort_job,
)
from repro.ngramstore.http import HttpStoreClient, NGramStoreHTTPServer
from repro.ngramstore.loadgen import LoadgenConfig, SLOTargets, check_slos, run_loadgen
from repro.ngramstore.lsm import GenerationView, LSMStore, is_lsm_dir, open_store_auto
from repro.ngramstore.merge import merge_stores
from repro.ngramstore.reader import NGramStore, StoreStatistics
from repro.ngramstore.router import ReplicaPool, ShardRouter, ShardView
from repro.ngramstore.server import NGramStoreServer, StoreClient
from repro.ngramstore.table import BlockCache, Table, TableWriter, TopKAccumulator

__all__ = [
    "BlockCache",
    "Completion",
    "DEFAULT_COMPLETE_K",
    "GenerationView",
    "HttpStoreClient",
    "LSMStore",
    "LoadgenConfig",
    "NGramRecord",
    "NGramStore",
    "NGramStoreHTTPServer",
    "NGramStoreServer",
    "QueryEngine",
    "RangePartitioner",
    "ReplicaPool",
    "ShardRouter",
    "SLOTargets",
    "ShardView",
    "StoreAPI",
    "StoreClient",
    "StoreStatistics",
    "Table",
    "TableWriter",
    "TopKAccumulator",
    "build_store",
    "check_slos",
    "complete_scan",
    "diff_records",
    "diff_stores",
    "intersect_records",
    "intersect_stores",
    "is_lsm_dir",
    "load_manifest",
    "merge_stores",
    "open_store_auto",
    "run_loadgen",
    "plan_boundaries",
    "sample_keys",
    "total_order_sort_job",
]

"""Command-line interface.

Installed as ``repro-ngrams`` (or ``python -m repro``).  Sub-commands:

``generate``
    Generate a synthetic corpus (NYT-like or ClueWeb-like), encode it and
    write it to a directory in the paper's on-disk layout.

``stats``
    Print Table-I style characteristics of a corpus directory.

``count``
    Compute n-gram statistics of a corpus directory with any of the four
    algorithms, optionally restricted to maximal or closed n-grams.

``experiment``
    Run one of the paper's experiments (table1, fig2 ... fig7, extensions,
    ablations) on the built-in synthetic datasets and print paper-style
    tables.

``query``
    Point/prefix/top-k lookups against an n-gram store directory written by
    ``count --store-dir`` (see :mod:`repro.ngramstore`) — or against a
    running server via ``--server HOST:PORT`` (socket) or ``--url``
    (HTTP), through the same unified ``StoreAPI``.

``serve``
    Long-lived multi-client query server over one store: newline-delimited
    JSON over TCP (or REST with ``--http``), a process-wide shared block
    cache, per-request latency metrics, graceful shutdown on
    SIGINT/SIGTERM.  ``--num-shards``/``--shard-index`` serve one shard of
    a range-sharded deployment (see :mod:`repro.ngramstore.router`).

``loadgen``
    Seeded workload replay (hot-key zipf, prefix-heavy, batched, mixed)
    against a store directory or any serving deployment, reporting
    histogram-derived per-mix latency percentiles and failing on SLO
    violations (see :mod:`repro.ngramstore.loadgen`).

``merge-stores``
    K-way merge of several stores into one (summing duplicate keys) —
    compaction for incremental corpus growth from per-shard counting runs.
    Exact at any τ when the inputs carry residual sidecar tables (built
    with ``count --store-tau``); ``--allow-lower-bound`` keeps the old
    lossy behaviour for legacy residual-less stores.

``ingest``
    Count one corpus batch into a new τ=1 delta generation of an LSM
    store directory (``--init`` creates the store first).  The store
    stays queryable throughout — ``query``/``serve``/``loadgen`` sum
    all live generations transparently.

``compact``
    Fold LSM store generations together with the exact residual merge:
    size-tiered by default, ``--all`` collapses everything into one
    generation at the store's τ.

``rethreshold``
    Re-apply a different frequency threshold τ to one store, exactly:
    a single-input merge that re-splits the main/residual tables at the
    new τ — byte-identical to recounting the corpus at that τ (requires a
    residual-exact input, see ``merge-stores``).

``diff-stores`` / ``intersect-stores``
    Cross-store analytics (see :mod:`repro.ngramstore.analytics`): one
    streaming co-scan over two stores' exact tables.  ``diff`` keeps the
    n-grams of A absent from B (with A's counts); ``intersect`` keeps the
    shared n-grams with per-store counts.  Results print as records
    (``--mode ratio`` for corpus-size-normalised comparisons) or land in
    a new queryable store directory via ``--output``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.algorithms import make_counter
from repro.algorithms.extensions import ClosedNGramCounter, MaximalNGramCounter
from repro.config import (
    MATERIALIZE_MODES,
    RUNNER_NAMES,
    SHARD_CODECS,
    ExecutionConfig,
    NGramJobConfig,
    StoreConfig,
    parse_spill_threshold,
)
from repro.corpus.io import read_encoded_collection, write_encoded_collection
from repro.exceptions import ReproError
from repro.corpus.stats import compute_statistics
from repro.harness import figures
from repro.harness.datasets import clueweb_like, nytimes_like
from repro.harness.report import (
    format_histogram,
    format_measurements,
    format_sweep,
    format_table,
)


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Runner-backend flags shared by the ``count`` and ``experiment`` commands."""
    parser.add_argument(
        "--runner",
        choices=RUNNER_NAMES,
        default="local",
        help="MapReduce execution backend (default: local, sequential)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --runner processes (default: the CPU count)",
    )
    parser.add_argument(
        "--spill-threshold",
        type=str,
        default=None,
        metavar="BUDGET",
        help="shuffle spill budget: bytes (65536, 64kb, 8mb) or a record "
        "count (100k, 2m, 5000r); past it, sorted runs spill to disk "
        "(default: keep the whole shuffle in memory)",
    )
    parser.add_argument(
        "--shard-codec",
        choices=SHARD_CODECS,
        default="none",
        help="stream compression for on-disk shard files and spill runs "
        "(zstd needs the optional zstandard package)",
    )
    parser.add_argument(
        "--materialize",
        choices=MATERIALIZE_MODES,
        default="memory",
        help="where job inputs/outputs live: in-memory record lists (default) "
        "or sharded varint-framed datasets on disk",
    )
    parser.add_argument(
        "--track-memory",
        action="store_true",
        help="record the peak of Python-level allocations per run "
        "(reported and included in exports)",
    )


def _add_store_layout_arguments(parser: argparse.ArgumentParser) -> None:
    """Output-store layout flags shared by the store-writing commands."""
    parser.add_argument(
        "--partitions", type=int, default=4, help="range partitions of the output store"
    )
    parser.add_argument(
        "--codec",
        choices=SHARD_CODECS,
        default="none",
        help="per-block compression codec of the output tables",
    )
    parser.add_argument(
        "--records-per-block", type=int, default=1024, help="records per data block"
    )
    parser.add_argument(
        "--bloom-bits",
        type=int,
        default=10,
        metavar="BITS",
        help="Bloom-filter bits per key in the output tables' block "
        "indexes (0 disables the filters)",
    )
    parser.add_argument(
        "--sample-size",
        type=int,
        default=1024,
        help="keys sampled when deriving partition boundaries",
    )


def _store_config_from_args(args: argparse.Namespace) -> StoreConfig:
    return StoreConfig(
        num_partitions=args.partitions,
        codec=args.codec,
        records_per_block=args.records_per_block,
        sample_size=args.sample_size,
        bloom_bits_per_key=args.bloom_bits,
    )


def _execution_from_args(args: argparse.Namespace) -> Optional[ExecutionConfig]:
    """Build an ExecutionConfig from CLI flags (None for the plain default)."""
    if args.workers is not None and args.runner == "local":
        # Silently running sequentially would corrupt any speed-up comparison.
        raise SystemExit("error: --workers requires --runner processes")
    if (
        args.runner == "local"
        and args.workers is None
        and args.spill_threshold is None
        and args.shard_codec == "none"
        and args.materialize == "memory"
    ):
        return None
    spill_bytes, spill_records = None, None
    if args.spill_threshold is not None:
        try:
            spill_bytes, spill_records = parse_spill_threshold(args.spill_threshold)
        except ReproError as error:
            raise SystemExit(f"error: {error}")
    return ExecutionConfig(
        runner=args.runner,
        max_workers=args.workers,
        spill_threshold_bytes=spill_bytes,
        spill_threshold_records=spill_records,
        shard_codec=args.shard_codec,
        materialize=args.materialize,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ngrams",
        description="Computing n-gram statistics in MapReduce (EDBT 2013) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic corpus")
    generate.add_argument("--dataset", choices=("nyt", "cw"), default="nyt")
    generate.add_argument("--documents", type=int, default=150)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--output", required=True, help="output directory")
    generate.add_argument("--shards", type=int, default=8)

    stats = subparsers.add_parser("stats", help="print corpus characteristics (Table I)")
    stats.add_argument("--input", required=True, help="corpus directory")

    count = subparsers.add_parser("count", help="compute n-gram statistics")
    count.add_argument("--input", required=True, help="corpus directory")
    count.add_argument("--tau", type=int, default=5, help="minimum collection frequency")
    count.add_argument("--sigma", type=int, default=None, help="maximum n-gram length")
    count.add_argument(
        "--algorithm",
        default="SUFFIX-SIGMA",
        help="NAIVE, APRIORI-SCAN, APRIORI-INDEX or SUFFIX-SIGMA",
    )
    count.add_argument("--maximal", action="store_true", help="only maximal n-grams")
    count.add_argument("--closed", action="store_true", help="only closed n-grams")
    count.add_argument("--document-frequency", action="store_true")
    count.add_argument("--top", type=int, default=20, help="print only the top-k n-grams")
    count.add_argument("--output", default=None, help="write all n-grams to this TSV file")
    count.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="persist the run's statistics as a queryable n-gram store "
        "(sorted block-compressed tables; query with the 'query' command)",
    )
    count.add_argument(
        "--store-partitions",
        type=int,
        default=4,
        help="range partitions (= table files) of the persisted store",
    )
    count.add_argument(
        "--store-codec",
        choices=SHARD_CODECS,
        default="none",
        help="per-block compression codec of the persisted store tables",
    )
    count.add_argument(
        "--store-bloom-bits",
        type=int,
        default=10,
        metavar="BITS",
        help="Bloom-filter bits per key in the persisted store's block "
        "indexes (0 disables the filters)",
    )
    count.add_argument(
        "--store-tau",
        type=int,
        default=1,
        metavar="TAU",
        help="store-side frequency threshold: keys with counts below TAU "
        "go to a residual sidecar table so later merges stay exact "
        "(requires --tau 1 so the raw counts exist; default: 1, no residual)",
    )
    count.add_argument(
        "--materialize-corpus",
        action="store_true",
        help="decode the whole corpus into memory up front instead of "
        "streaming it from its on-disk shard layout (the default)",
    )
    count.add_argument(
        "--export-json",
        default=None,
        metavar="PATH",
        help="write the run's measurements (counters, wallclock, peak memory) "
        "to this JSON file",
    )
    _add_execution_arguments(count)

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument(
        "name",
        choices=(
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "extensions",
            "ablations",
        ),
    )
    experiment.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    experiment.add_argument(
        "--export", default=None, help="also write measurements to this CSV file (fig3/fig4/fig5/fig6/fig7/ablations)"
    )
    experiment.add_argument(
        "--export-json",
        default=None,
        metavar="PATH",
        help="also write measurements to this JSON file (fig3/fig4/fig5/fig6/fig7/ablations)",
    )
    experiment.add_argument(
        "--fractions",
        default=None,
        metavar="CSV",
        help="comma-separated dataset fractions for fig6 (e.g. 0.25,0.5)",
    )
    _add_execution_arguments(experiment)

    query = subparsers.add_parser(
        "query", help="query an n-gram store written by 'count --store-dir'"
    )
    query.add_argument(
        "store",
        nargs="?",
        default=None,
        help="store directory (omit when querying a remote via --server/--url)",
    )
    query.add_argument(
        "--server",
        metavar="HOST:PORT",
        default=None,
        help="query a running 'repro serve' socket server instead of a local store",
    )
    query.add_argument(
        "--protocol",
        choices=("binary", "json"),
        default="binary",
        help="wire framing for --server: binary frames (default) or newline-JSON",
    )
    query.add_argument(
        "--url",
        metavar="URL",
        default=None,
        help="query a running 'repro serve --http' server instead of a local store",
    )
    query_mode = query.add_mutually_exclusive_group(required=True)
    query_mode.add_argument(
        "--get", metavar="NGRAM", help="point lookup of one n-gram (space-separated terms)"
    )
    query_mode.add_argument(
        "--prefix",
        metavar="TOKENS",
        help="every stored n-gram starting with these terms, in key order",
    )
    query_mode.add_argument(
        "--top-k", type=int, metavar="K", help="the K top n-grams store-wide"
    )
    query_mode.add_argument(
        "--stats", action="store_true", help="print store metadata and exit"
    )
    query.add_argument(
        "--order",
        choices=("frequency", "key"),
        default="frequency",
        help="ranking for --top-k (default: frequency)",
    )
    query.add_argument(
        "--limit", type=int, default=None, help="cap on printed --prefix results"
    )
    query.add_argument(
        "--ids",
        action="store_true",
        help="treat query terms as integer term identifiers and print identifiers "
        "(default: use the store's vocabulary when present)",
    )
    query.add_argument(
        "--cache-blocks",
        type=int,
        default=None,
        help="LRU block-cache capacity per table (default: 32)",
    )

    serve = subparsers.add_parser(
        "serve", help="serve an n-gram store to concurrent clients over TCP"
    )
    serve.add_argument("store", help="store directory")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0 = OS-assigned; the bound port is printed)",
    )
    serve.add_argument(
        "--http",
        action="store_true",
        help="serve the REST adapter (GET routes + POST /query) instead of the "
        "socket protocol",
    )
    serve.add_argument(
        "--num-shards",
        type=int,
        default=1,
        metavar="N",
        help="range sharding: serve only one shard of an N-way split of the "
        "store's partitions (default: 1 = the whole store)",
    )
    serve.add_argument(
        "--shard-index",
        type=int,
        default=0,
        metavar="I",
        help="which shard to serve, in [0, N) (with --num-shards)",
    )
    serve.add_argument(
        "--extra-store",
        default=None,
        metavar="DIR",
        help="mount a second store (same vocabulary) as the comparison side "
        "of the 'compare' operation — point diff/intersect lookups answer "
        "from both stores in one request",
    )
    serve.add_argument(
        "--cache-blocks",
        type=int,
        default=256,
        help="capacity of the process-wide block cache shared by all partitions",
    )
    serve.add_argument(
        "--max-clients",
        type=int,
        default=32,
        help="concurrently served connections (excess connects queue in the backlog)",
    )
    serve.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="write 'host port' to this file once listening (for scripts/CI)",
    )
    serve.add_argument(
        "--metrics-file",
        default=None,
        metavar="PATH",
        help="write the aggregated request/latency metrics JSON here on shutdown",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also rewrite --metrics-file every SECONDS while serving "
        "(atomic replace, so pollers never see a torn snapshot)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log requests slower than MS milliseconds (0 logs everything)",
    )
    serve.add_argument(
        "--slow-query-log",
        default=None,
        metavar="PATH",
        help="append slow-query JSON lines here (with --slow-query-ms; "
        "default: entries are kept in memory only)",
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="replay a seeded workload against a store or serving deployment, "
        "asserting SLO targets",
    )
    loadgen.add_argument(
        "store",
        nargs="?",
        default=None,
        help="store directory to replay against in-process "
        "(omit when targeting servers via --connect/--url)",
    )
    loadgen.add_argument(
        "--connect",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="socket server endpoint (repeat for replicas/sharded topologies)",
    )
    loadgen.add_argument(
        "--url",
        action="append",
        default=None,
        metavar="URL",
        help="HTTP server URL (repeat for replicas/sharded topologies)",
    )
    loadgen.add_argument(
        "--topology",
        choices=("single", "replicas", "sharded"),
        default="single",
        help="how multiple endpoints compose: identical replicas behind a "
        "ReplicaPool, or range shards behind a ShardRouter",
    )
    loadgen.add_argument(
        "--mixes",
        default=None,
        metavar="NAMES",
        help="comma-separated workload mixes to replay "
        "(default: hot_key,prefix_heavy,batch,mixed)",
    )
    loadgen.add_argument(
        "--requests", type=int, default=200, help="requests per mix (default: 200)"
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=4, help="closed-loop workers (default: 4)"
    )
    loadgen.add_argument("--seed", type=int, default=1, help="workload PRNG seed")
    loadgen.add_argument(
        "--batch-size", type=int, default=8, help="keys per multi_get batch"
    )
    loadgen.add_argument(
        "--universe",
        type=int,
        default=256,
        help="distinct keys sampled from the store (hottest first)",
    )
    loadgen.add_argument(
        "--zipf-s", type=float, default=1.2, help="hot-key skew exponent"
    )
    loadgen.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the JSON report here (e.g. reports/BENCH_loadgen.json)",
    )
    loadgen.add_argument(
        "--slo-p50-ms", type=float, default=None, help="fail if any mix's p50 exceeds MS"
    )
    loadgen.add_argument(
        "--slo-p95-ms", type=float, default=None, help="fail if any mix's p95 exceeds MS"
    )
    loadgen.add_argument(
        "--slo-p99-ms", type=float, default=None, help="fail if any mix's p99 exceeds MS"
    )
    loadgen.add_argument(
        "--slo-min-throughput",
        type=float,
        default=None,
        metavar="RPS",
        help="fail if any mix's closed-loop throughput falls below RPS",
    )

    merge = subparsers.add_parser(
        "merge-stores",
        help="k-way merge several n-gram stores into one (sums duplicate keys)",
    )
    merge.add_argument("inputs", nargs="+", help="input store directories")
    merge.add_argument("--output", required=True, help="merged store directory")
    _add_store_layout_arguments(merge)
    merge.add_argument(
        "--tau",
        type=int,
        default=None,
        metavar="TAU",
        help="frequency threshold of the merged store (requires "
        "residual-exact inputs; default: the max of the inputs' thresholds)",
    )
    merge.add_argument(
        "--allow-lower-bound",
        action="store_true",
        help="permit merging residual-less stores built with a threshold "
        "> 1: merged counts are then only lower bounds near the threshold, "
        "and the output is stamped counts=lower_bound",
    )

    rethreshold = subparsers.add_parser(
        "rethreshold",
        help="re-apply a different frequency threshold tau to one store, "
        "exactly (single-input merge over main+residual)",
    )
    rethreshold.add_argument("store", help="input store directory (residual-exact)")
    rethreshold.add_argument("--output", required=True, help="rethresholded store directory")
    rethreshold.add_argument(
        "--tau",
        type=int,
        required=True,
        metavar="TAU",
        help="new frequency threshold; counts below it move to the output's "
        "residual sidecar, counts at or above it to the main table",
    )
    _add_store_layout_arguments(rethreshold)

    for kind, title in (
        ("diff-stores", "the n-grams of store A absent from store B"),
        ("intersect-stores", "the n-grams shared by stores A and B"),
    ):
        analytics = subparsers.add_parser(
            kind,
            help=f"stream or materialise {title} (exact ordered co-scan)",
        )
        analytics.add_argument("store_a", help="left store directory (A)")
        analytics.add_argument("store_b", help="right store directory (B)")
        analytics.add_argument(
            "--output",
            default=None,
            metavar="DIR",
            help="write the result as a queryable store directory instead of "
            "printing records",
        )
        analytics.add_argument(
            "--min-frequency",
            type=int,
            default=1,
            metavar="TAU",
            help="keep only records whose count reaches TAU "
            "(both stores' counts for intersect; default: 1 = everything)",
        )
        analytics.add_argument(
            "--mode",
            choices=("count", "ratio"),
            default="count",
            help="printed value: raw counts, or counts normalised by each "
            "store's corpus size (manifest unigram_total) — 'ratio' is a "
            "report, so it cannot combine with --output",
        )
        analytics.add_argument(
            "--limit",
            type=int,
            default=None,
            metavar="N",
            help="print at most N records (default: all)",
        )
        analytics.add_argument(
            "--ids",
            action="store_true",
            help="print integer term ids instead of surface terms",
        )
        analytics.add_argument(
            "--allow-thresholded",
            action="store_true",
            help="permit comparing residual-less stores built with a "
            "threshold > 1: the co-scan then sees their filtered serving "
            "views, so absence claims below tau are unreliable",
        )
        _add_store_layout_arguments(analytics)

    ingest = subparsers.add_parser(
        "ingest",
        help="count a corpus batch into a new delta generation of an LSM store",
    )
    ingest.add_argument("store", help="LSM store directory")
    ingest.add_argument("--input", required=True, help="corpus directory to ingest")
    ingest.add_argument(
        "--init",
        action="store_true",
        help="create the LSM store first (fails if it already exists)",
    )
    ingest.add_argument(
        "--tau", type=int, default=5, help="store frequency threshold (with --init)"
    )
    ingest.add_argument(
        "--sigma", type=int, default=None, help="maximum n-gram length (with --init)"
    )
    ingest.add_argument(
        "--algorithm",
        default="SUFFIX-SIGMA",
        help="counting algorithm for delta batches (with --init)",
    )
    ingest.add_argument(
        "--store-partitions",
        type=int,
        default=4,
        help="range partitions per generation (with --init)",
    )
    ingest.add_argument(
        "--store-codec",
        choices=SHARD_CODECS,
        default="none",
        help="per-block compression codec of generation tables (with --init)",
    )
    ingest.add_argument(
        "--store-bloom-bits",
        type=int,
        default=10,
        metavar="BITS",
        help="Bloom-filter bits per key in generation block indexes (with --init)",
    )
    _add_execution_arguments(ingest)

    compact = subparsers.add_parser(
        "compact",
        help="fold LSM store generations together with the exact residual merge",
    )
    compact.add_argument("store", help="LSM store directory")
    compact.add_argument(
        "--all",
        dest="all_generations",
        action="store_true",
        help="collapse every generation into one (default: size-tiered pick)",
    )
    compact.add_argument(
        "--tier-ratio",
        type=int,
        default=None,
        metavar="RATIO",
        help="size-tiered bucketing ratio (default: 4)",
    )
    compact.add_argument(
        "--min-tier",
        type=int,
        default=None,
        metavar="N",
        help="minimum generations per compaction (default: 2)",
    )
    compact.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the compaction stats JSON here as well as stdout",
    )

    coderivatives = subparsers.add_parser(
        "coderivatives", help="find co-derivative document pairs via long shared n-grams"
    )
    coderivatives.add_argument("--input", required=True, help="corpus directory")
    coderivatives.add_argument("--min-length", type=int, default=8)
    coderivatives.add_argument("--top", type=int, default=10)

    trends = subparsers.add_parser(
        "trends", help="rank n-grams by their time-series trend (culturomics)"
    )
    trends.add_argument("--input", required=True, help="corpus directory")
    trends.add_argument("--tau", type=int, default=5)
    trends.add_argument("--sigma", type=int, default=3)
    trends.add_argument("--top", type=int, default=10)
    return parser


# ----------------------------------------------------------------- actions
def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "nyt":
        spec = nytimes_like(num_documents=args.documents, seed=args.seed)
    else:
        spec = clueweb_like(num_documents=args.documents, seed=args.seed)
    collection = spec.build()
    write_encoded_collection(collection, args.output, num_shards=args.shards)
    statistics = compute_statistics(collection)
    print(f"wrote {spec.name} corpus to {args.output}")
    print(format_table([dict(statistics.as_rows())]))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    collection = read_encoded_collection(args.input)
    statistics = compute_statistics(collection)
    for label, value in statistics.as_rows():
        print(f"{label:30s} {value}")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    if args.maximal and args.closed:
        print("error: --maximal and --closed are mutually exclusive", file=sys.stderr)
        return 2
    if args.store_tau > 1 and args.tau != 1:
        # Residual capture needs the raw τ=1 counts: the algorithms prune
        # below --tau at emit time, so the sub-threshold keys the residual
        # table must hold would never reach the store build.
        print(
            "error: --store-tau > 1 requires --tau 1 (count everything, "
            "let the store build apply the threshold)",
            file=sys.stderr,
        )
        return 2
    collection = read_encoded_collection(args.input, materialize=args.materialize_corpus)
    config = NGramJobConfig(
        min_frequency=args.tau,
        max_length=args.sigma,
        count_document_frequency=args.document_frequency,
    )
    execution = _execution_from_args(args)
    if args.maximal:
        counter = MaximalNGramCounter(config, execution=execution)
    elif args.closed:
        counter = ClosedNGramCounter(config, execution=execution)
    else:
        counter = make_counter(args.algorithm, config, execution=execution)
    store = (
        StoreConfig(
            num_partitions=args.store_partitions,
            codec=args.store_codec,
            bloom_bits_per_key=args.store_bloom_bits,
            min_frequency=args.store_tau,
        )
        if args.store_dir is not None
        else None
    )
    result = counter.run(
        collection,
        track_memory=args.track_memory,
        store_dir=args.store_dir,
        store=store,
    )
    decoded = result.statistics.decoded(collection.vocabulary)

    peak = (
        f", peak_mem={result.peak_memory_bytes}"
        if result.peak_memory_bytes is not None
        else ""
    )
    print(
        f"{counter.name}: {len(decoded)} n-grams "
        f"(tau={args.tau}, sigma={args.sigma or 'inf'}, jobs={result.num_jobs}, "
        f"records={result.map_output_records}, bytes={result.map_output_bytes}{peak})"
    )
    for ngram, frequency in decoded.top(args.top):
        print(f"{frequency:10d}  {' '.join(ngram)}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for ngram, frequency in sorted(decoded.items(), key=lambda item: -item[1]):
                handle.write(f"{frequency}\t{' '.join(ngram)}\n")
        print(f"wrote {len(decoded)} n-grams to {args.output}")
    if args.export_json:
        payload = {
            "algorithm": counter.name,
            "tau": args.tau,
            "sigma": args.sigma,
            "num_ngrams": len(decoded),
            "num_jobs": result.num_jobs,
            "map_output_records": result.map_output_records,
            "map_output_bytes": result.map_output_bytes,
            "elapsed_seconds": result.elapsed_seconds,
            "peak_memory_bytes": result.peak_memory_bytes,
            "counters": result.counters.as_dict(),
        }
        parent = os.path.dirname(args.export_json)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.export_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote measurements to {args.export_json}")
    if args.store_dir:
        from repro.ngramstore import load_manifest

        # Boundary sampling may dedup quantiles on skewed/small runs, so
        # report the partition count the build actually produced.
        manifest = load_manifest(args.store_dir)
        print(
            f"wrote n-gram store to {args.store_dir} "
            f"({manifest['num_partitions']} partitions, codec={args.store_codec})"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.ngramstore.lsm import open_store_auto
    from repro.ngramstore.table import DEFAULT_CACHE_BLOCKS

    sources = sum(1 for source in (args.store, args.server, args.url) if source)
    if sources != 1:
        print(
            "error: pass exactly one of a store directory, --server or --url",
            file=sys.stderr,
        )
        return 2
    try:
        if args.server is not None:
            from repro.ngramstore.server import StoreClient

            host, _, port = args.server.rpartition(":")
            if not host or not port.isdigit():
                print(
                    f"error: --server expects HOST:PORT, got {args.server!r}",
                    file=sys.stderr,
                )
                return 2
            api = StoreClient(host, int(port), protocol=args.protocol)
        elif args.url is not None:
            from repro.ngramstore.http import HttpStoreClient

            api = HttpStoreClient(args.url)
        else:
            cache_blocks = (
                args.cache_blocks if args.cache_blocks is not None else DEFAULT_CACHE_BLOCKS
            )
            api = open_store_auto(args.store, cache_blocks=cache_blocks)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # One code path for local stores and both remote transports: everything
    # below speaks StoreAPI.  With a persisted vocabulary the term-keyed
    # operations run wherever the dictionary lives (server-side for
    # remotes — clients never download it); --ids (or a vocabulary-less
    # store) falls back to raw keys.
    with api:
        try:
            stats = api.stats()
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        use_terms = (not args.ids) and bool(stats.get("has_vocabulary"))

        def encode(tokens: List[str]) -> tuple:
            try:
                return tuple(int(token) for token in tokens)
            except ValueError:
                # No vocabulary in the store: keys are whatever the counting
                # run used (surface strings for raw collections).
                return tuple(tokens)

        def render(ngram: tuple) -> str:
            return " ".join(str(term) for term in ngram)

        def render_value(value: object) -> str:
            # Stores hold counts in the common case, but build_store accepts
            # arbitrary values (e.g. time-series dicts) — print those as-is.
            if isinstance(value, int):
                return f"{value:10d}"
            return str(value)

        if args.stats:
            print(f"store          {stats['store_dir']}")
            print(f"n-grams        {stats['num_records']}")
            print(f"partitions     {stats['num_partitions']}")
            print(f"codec          {stats['codec']}")
            print(f"vocabulary     {'yes' if stats.get('has_vocabulary') else 'no'}")
            for key, value in sorted(stats.get("metadata", {}).items()):
                print(f"{key:14s} {value}")
            return 0
        try:
            if args.get is not None:
                tokens = args.get.split()
                if use_terms:
                    frequency = api.get_terms(tokens)
                    rendered = " ".join(tokens)
                else:
                    ngram = encode(tokens)
                    frequency = api.get(ngram)
                    rendered = render(ngram)
                if frequency is None:
                    print(f"not found: {args.get}")
                    return 1
                print(f"{render_value(frequency)}  {rendered}")
            elif args.prefix is not None:
                tokens = args.prefix.split()
                if use_terms:
                    records = api.prefix_terms(tokens, limit=args.limit)
                else:
                    records = api.prefix(encode(tokens), limit=args.limit)
                matches = 0
                for ngram, frequency in records:
                    print(f"{render_value(frequency)}  {render(ngram)}")
                    matches += 1
                print(f"{matches} n-grams with prefix {args.prefix!r}")
            else:
                if use_terms:
                    records = api.top_k_terms(args.top_k, order=args.order)
                else:
                    records = api.top_k(args.top_k, order=args.order)
                for ngram, frequency in records:
                    print(f"{render_value(frequency)}  {render(ngram)}")
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.config import ServerConfig
    from repro.ngramstore.http import NGramStoreHTTPServer
    from repro.ngramstore.server import NGramStoreServer

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            cache_blocks=args.cache_blocks,
            max_clients=args.max_clients,
            protocol="http" if args.http else "socket",
            num_shards=args.num_shards,
            shard_index=args.shard_index,
            slow_query_ms=args.slow_query_ms,
            slow_query_log=args.slow_query_log,
            extra_store=args.extra_store,
        )
        if args.metrics_interval is not None:
            if args.metrics_interval <= 0:
                raise ReproError(
                    f"--metrics-interval must be positive, got {args.metrics_interval}"
                )
            if not args.metrics_file:
                raise ReproError("--metrics-interval requires --metrics-file")
        server_cls = NGramStoreHTTPServer if args.http else NGramStoreServer
        server = server_cls(args.store, config=config)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        host, port = server.start()
    except OSError as error:
        # Bind failures (port in use, privileged port) get the same clean
        # exit as every other failure mode of the command.
        print(f"error: cannot listen on {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    shard_note = (
        f", shard={config.shard_index}/{config.num_shards}"
        if config.num_shards > 1
        else ""
    )
    service = server.service
    print(
        f"serving {args.store} on {host}:{port} "
        f"({service.store.num_records} n-grams, {service.store.num_partitions} partitions, "
        f"cache={args.cache_blocks} blocks, max-clients={args.max_clients}, "
        f"protocol={config.protocol}{shard_note})",
        flush=True,
    )
    if args.ready_file:
        # The contents, not the file's existence, signal readiness: write to
        # a sibling then rename so pollers never read a half-written line.
        parent = os.path.dirname(args.ready_file)
        if parent:
            os.makedirs(parent, exist_ok=True)
        staging = args.ready_file + ".tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            handle.write(f"{host} {port}\n")
        os.replace(staging, args.ready_file)

    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal handler shape
        stop.set()

    def _snapshot():
        metrics = service.metrics.snapshot()
        metrics["cache"] = service.cache_summary()
        return metrics

    def _write_metrics(metrics):
        # Atomic replace: a SIGTERM mid-write or a concurrent poller must
        # never leave/see a torn snapshot file.
        parent = os.path.dirname(args.metrics_file)
        if parent:
            os.makedirs(parent, exist_ok=True)
        staging = args.metrics_file + ".tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        os.replace(staging, args.metrics_file)

    if args.metrics_file and args.metrics_interval is not None:

        def _periodic_snapshots():
            while not stop.wait(args.metrics_interval):
                _write_metrics(_snapshot())

        threading.Thread(
            target=_periodic_snapshots, name="metrics-snapshots", daemon=True
        ).start()

    # Signal handlers only install on the main thread — which is where a
    # CLI entry point runs.  (In-process callers on other threads should
    # drive NGramStoreServer directly; this command has no other stop
    # hook.)  The KeyboardInterrupt catch covers a Ctrl-C landing in the
    # window before the SIGINT handler is installed.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, _request_stop)
        signal.signal(signal.SIGTERM, _request_stop)
    try:
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
    finally:
        # The final snapshot must land even when shutdown is messy (a
        # second signal mid-close, a store that fails to close): snapshot
        # before close, write before re-raising anything.
        stop.set()
        metrics = _snapshot()
        if args.metrics_file:
            _write_metrics(metrics)
        server.close()
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.ngramstore.loadgen import (
        MIXES,
        LoadgenConfig,
        SLOTargets,
        check_slos,
        run_loadgen,
    )

    targets = [args.store is not None, bool(args.connect), bool(args.url)]
    if sum(targets) != 1:
        print(
            "error: pick exactly one target: a store directory, --connect, or --url",
            file=sys.stderr,
        )
        return 2

    def parse_endpoint(endpoint: str) -> tuple:
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            raise ReproError(f"--connect expects HOST:PORT, got {endpoint!r}")
        return host, int(port)

    try:
        config = LoadgenConfig(
            mixes=tuple(args.mixes.split(",")) if args.mixes else MIXES,
            requests_per_mix=args.requests,
            concurrency=args.concurrency,
            seed=args.seed,
            batch_size=args.batch_size,
            universe=args.universe,
            zipf_s=args.zipf_s,
        )
        if args.store is not None:
            from repro.ngramstore.lsm import open_store_auto

            # A direct store is safe to share across the worker threads.
            factory = None
            generator = open_store_auto(args.store)
            label = args.store
        else:
            if args.connect:
                from repro.ngramstore.server import StoreClient

                endpoints = [parse_endpoint(endpoint) for endpoint in args.connect]
                builders = [
                    (lambda host=host, port=port: StoreClient(host, port))
                    for host, port in endpoints
                ]
                label = ",".join(f"{host}:{port}" for host, port in endpoints)
            else:
                from repro.ngramstore.http import HttpStoreClient

                builders = [(lambda url=url: HttpStoreClient(url)) for url in args.url]
                label = ",".join(args.url)
            if len(builders) == 1:
                factory = builders[0]
            elif args.topology == "replicas":
                from repro.ngramstore.router import ReplicaPool

                def factory():
                    return ReplicaPool([build() for build in builders])

            elif args.topology == "sharded":
                from repro.ngramstore.router import ShardRouter

                def factory():
                    return ShardRouter([build() for build in builders])

            else:
                print(
                    "error: multiple endpoints need --topology replicas or sharded",
                    file=sys.stderr,
                )
                return 2
            label = f"{args.topology}({label})" if len(builders) > 1 else label
            generator = factory()
        try:
            report = run_loadgen(generator, config, factory=factory, target=label)
        finally:
            generator.close()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    slo = SLOTargets(
        p50_ms=args.slo_p50_ms,
        p95_ms=args.slo_p95_ms,
        p99_ms=args.slo_p99_ms,
        min_throughput=args.slo_min_throughput,
    )
    violations = check_slos(report, slo)
    report["slo"] = {
        "p50_ms": slo.p50_ms,
        "p95_ms": slo.p95_ms,
        "p99_ms": slo.p99_ms,
        "min_throughput": slo.min_throughput,
    }
    report["slo_violations"] = violations
    report["ok"] = not violations
    if args.report:
        parent = os.path.dirname(args.report)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    if violations:
        for violation in violations:
            print(f"SLO violation: {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_merge_stores(args: argparse.Namespace) -> int:
    from repro.ngramstore import NGramStore
    from repro.ngramstore.merge import merge_stores

    try:
        merge_stores(
            args.inputs,
            args.output,
            store=_store_config_from_args(args),
            min_frequency=args.tau,
            allow_lower_bound=args.allow_lower_bound,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with NGramStore.open(args.output) as merged:
        residual = merged.manifest.get("residual")
        residual_note = (
            f", residual={residual['num_records']} sub-τ records"
            if residual
            else ""
        )
        print(
            f"merged {len(args.inputs)} stores into {args.output} "
            f"({merged.num_records} n-grams, {merged.num_partitions} partitions, "
            f"codec={args.codec}{residual_note})"
        )
    return 0


def _cmd_rethreshold(args: argparse.Namespace) -> int:
    from repro.ngramstore import NGramStore
    from repro.ngramstore.merge import merge_stores

    try:
        merge_stores(
            [args.store],
            args.output,
            store=_store_config_from_args(args),
            min_frequency=args.tau,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with NGramStore.open(args.output) as result:
        residual = result.manifest.get("residual")
        residual_note = (
            f", residual={residual['num_records']} sub-τ records" if residual else ""
        )
        print(
            f"rethresholded {args.store} at tau={args.tau} into {args.output} "
            f"({result.num_records} n-grams, {result.num_partitions} partitions"
            f"{residual_note})"
        )
    return 0


def _analytics_totals(store_a, store_b):
    """Both stores' corpus sizes for ratio mode, loudly when unavailable."""
    totals = []
    for store in (store_a, store_b):
        total = store.metadata.get("unigram_total")
        if not isinstance(total, int) or isinstance(total, bool) or total <= 0:
            raise ReproError(
                f"--mode ratio needs the corpus size, but {store.store_dir!r} "
                "carries no unigram_total metadata (stores written by "
                "count --store-dir do)"
            )
        totals.append(total)
    return tuple(totals)


def _cmd_analytics(args: argparse.Namespace) -> int:
    from itertools import islice

    from repro.ngramstore import NGramStore
    from repro.ngramstore.analytics import (
        diff_records,
        diff_stores,
        intersect_records,
        intersect_stores,
    )

    kind = "diff" if args.command == "diff-stores" else "intersect"
    if args.output is not None and args.mode == "ratio":
        print(
            "error: --mode ratio prints a normalised report; a store holds "
            "counts — drop --output or --mode ratio",
            file=sys.stderr,
        )
        return 2
    if args.limit is not None and args.limit < 0:
        print(f"error: --limit must be >= 0, got {args.limit}", file=sys.stderr)
        return 2
    try:
        if args.output is not None:
            write = diff_stores if kind == "diff" else intersect_stores
            write(
                args.store_a,
                args.store_b,
                args.output,
                store=_store_config_from_args(args),
                min_frequency=args.min_frequency,
                allow_thresholded=args.allow_thresholded,
            )
            with NGramStore.open(args.output) as result:
                print(
                    f"wrote {kind} of {args.store_a} vs {args.store_b} to "
                    f"{args.output} ({result.num_records} n-grams, "
                    f"{result.num_partitions} partitions, codec={args.codec})"
                )
            return 0
        stream = diff_records if kind == "diff" else intersect_records
        with NGramStore.open(args.store_a) as store_a, NGramStore.open(
            args.store_b
        ) as store_b:
            totals = (
                _analytics_totals(store_a, store_b) if args.mode == "ratio" else None
            )
            surface = store_a.vocabulary is not None and not args.ids
            records = stream(
                store_a,
                store_b,
                min_frequency=args.min_frequency,
                allow_thresholded=args.allow_thresholded,
            )
            if args.limit is not None:
                records = islice(records, args.limit)
            printed = 0
            for key, value in records:
                rendered = (
                    " ".join(store_a.render_ngrams([key])[0])
                    if surface
                    else " ".join(str(token) for token in key)
                )
                if kind == "diff":
                    count_a = value
                    cells = (
                        f"{count_a}"
                        if totals is None
                        else f"{count_a / totals[0]:.3e}"
                    )
                else:
                    count_a, count_b = value
                    if totals is None:
                        cells = f"{count_a}\t{count_b}"
                    else:
                        relative_a = count_a / totals[0]
                        relative_b = count_b / totals[1]
                        cells = f"{relative_a / relative_b:.6f}"
                print(f"{cells}\t{rendered}")
                printed += 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Streaming into a closed pipe (e.g. `| head`) is a normal way to
        # consume these reports; exit quietly with the conventional status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    print(f"{printed} {kind} records", file=sys.stderr)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.ngramstore.lsm import LSMStore

    try:
        execution = _execution_from_args(args)
        if args.init:
            store = LSMStore.init(
                args.store,
                min_frequency=args.tau,
                max_length=args.sigma,
                algorithm=args.algorithm,
                store=StoreConfig(
                    num_partitions=args.store_partitions,
                    codec=args.store_codec,
                    bloom_bits_per_key=args.store_bloom_bits,
                ),
            )
            print(f"initialised LSM store at {args.store} (tau={store.min_frequency})")
        else:
            store = LSMStore.open(args.store)
        collection = read_encoded_collection(args.input)
        entry = store.ingest(collection, source=args.input, execution=execution)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"ingested {args.input} as generation {entry['name']} "
        f"({entry['num_records']} records, "
        f"{len(store.generations)} live generations)"
    )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.ngramstore.lsm import DEFAULT_MIN_TIER, DEFAULT_TIER_RATIO, LSMStore

    tier_ratio = args.tier_ratio if args.tier_ratio is not None else DEFAULT_TIER_RATIO
    min_tier = args.min_tier if args.min_tier is not None else DEFAULT_MIN_TIER
    try:
        store = LSMStore.open(args.store)
        stats = store.compact(
            all_generations=args.all_generations,
            tier_ratio=tier_ratio,
            min_tier=min_tier,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if stats is None:
        print(
            f"nothing to compact in {args.store} "
            f"({len(store.generations)} generations)"
        )
        return 0
    if args.stats_json:
        parent = os.path.dirname(args.stats_json)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _export_measurements(measurements, path: Optional[str]) -> None:
    if not path:
        return
    from repro.harness.export import write_measurements_csv

    write_measurements_csv(measurements, path)
    print(f"wrote {len(list(measurements))} measurements to {path}")


def _parse_fractions(text: Optional[str]):
    if not text:
        return None
    try:
        fractions = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"error: invalid --fractions value {text!r}")
    if not fractions or any(not 0 < fraction <= 1 for fraction in fractions):
        raise SystemExit("error: --fractions must be in (0, 1]")
    return fractions


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness.datasets import default_datasets
    from repro.harness.experiment import ExperimentRunner

    datasets = default_datasets(scale=args.scale)
    if args.name == "fig7" and (args.runner != "local" or args.workers is not None):
        # Figure 7 sweeps the processes executor over its own worker counts.
        raise SystemExit("error: --runner/--workers are not supported for fig7")
    execution = _execution_from_args(args)
    if execution is not None and args.name in ("table1", "extensions"):
        # table1 launches no MapReduce jobs; the extensions overview includes
        # the time-series counter, whose mapper closure cannot cross a
        # process boundary.  Fail loudly instead of silently ignoring flags.
        raise SystemExit(
            "error: --runner/--workers/--spill-threshold/--materialize are "
            f"not supported for {args.name}"
        )
    runner = ExperimentRunner(execution=execution, track_memory=args.track_memory)
    fractions = _parse_fractions(args.fractions)
    exported: List = []
    if args.name == "table1":
        for name, statistics in figures.table1_dataset_characteristics(datasets).items():
            print(f"== {name} ==")
            for label, value in statistics.as_rows():
                print(f"{label:30s} {value}")
    elif args.name == "fig2":
        for name, histogram in figures.figure2_output_characteristics(
            datasets, execution=execution
        ).items():
            print(f"== {name} ==")
            print(format_histogram(histogram))
    elif args.name == "fig3":
        result = figures.figure3_use_cases(datasets, runner=runner)
        print("== language model use case (sigma=5) ==")
        for name, measurements in result.language_model.items():
            print(format_measurements(measurements))
            exported.extend(measurements)
        print("== analytics use case (sigma=100) ==")
        for name, measurements in result.analytics.items():
            print(format_measurements(measurements))
            exported.extend(measurements)
    elif args.name in ("fig4", "fig5", "fig6", "fig7"):
        if args.name == "fig4":
            sweeps = figures.figure4_vary_tau(datasets, runner=runner)
        elif args.name == "fig5":
            sweeps = figures.figure5_vary_sigma(datasets, runner=runner)
        elif args.name == "fig6":
            sweeps = figures.figure6_scale_datasets(
                datasets,
                runner=runner,
                fractions=fractions if fractions is not None else figures.DATASET_FRACTIONS,
            )
        else:
            sweeps = figures.figure7_scale_slots(
                datasets, execution=execution, track_memory=args.track_memory
            )
        x_label = {"fig4": "tau", "fig5": "sigma", "fig6": "fraction_pct", "fig7": "workers"}
        for name, sweep in sweeps.items():
            print(f"== {name} ==")
            for metric in ("wallclock_s", "records"):
                print(f"{metric} by {x_label[args.name]}:")
                print(format_sweep(sweep, metric=metric, parameter_label="method"))
            for measurements in sweep.values():
                exported.extend(measurements)
    elif args.name == "extensions":
        result = figures.extensions_overview(datasets)
        rows = [
            {
                "dataset": name,
                "all": result.all_ngrams[name],
                "closed": result.closed_ngrams[name],
                "maximal": result.maximal_ngrams[name],
            }
            for name in result.all_ngrams
        ]
        print(format_table(rows))
    elif args.name == "ablations":
        measurements = figures.ablation_implementation_choices(
            datasets[0], execution=execution, track_memory=args.track_memory
        )
        print(format_measurements(measurements))
        exported.extend(measurements)
    if getattr(args, "export", None) and exported:
        _export_measurements(exported, args.export)
    if getattr(args, "export_json", None) and exported:
        from repro.harness.export import write_measurements_json

        write_measurements_json(exported, args.export_json)
        print(f"wrote {len(exported)} measurements to {args.export_json}")
    return 0


def _cmd_coderivatives(args: argparse.Namespace) -> int:
    from repro.applications.coderivatives import find_coderivative_pairs

    # Co-derivative mining accesses documents repeatedly; decode the corpus
    # once instead of re-reading shards per lookup.
    collection = read_encoded_collection(args.input, materialize=True)
    pairs = find_coderivative_pairs(
        collection, min_shared_length=args.min_length, max_pairs=args.top
    )
    if not pairs:
        print("no co-derivative document pairs found")
        return 0
    rows = [
        {
            "left": pair.left_doc_id,
            "right": pair.right_doc_id,
            "longest shared n-gram": pair.longest_shared_length,
            "shared n-grams": pair.shared_ngrams,
            "shared tokens": pair.shared_tokens,
        }
        for pair in pairs
    ]
    print(format_table(rows))
    return 0


def _cmd_trends(args: argparse.Namespace) -> int:
    from repro.algorithms.extensions import SuffixSigmaTimeSeriesCounter
    from repro.applications.culturomics import trend_report, yearly_token_totals

    # The trend report iterates the collection twice (counting run, then
    # yearly totals); decode it once instead of re-reading shards per pass.
    collection = read_encoded_collection(args.input, materialize=True)
    config = NGramJobConfig(min_frequency=args.tau, max_length=args.sigma)
    counter = SuffixSigmaTimeSeriesCounter(config)
    counter.run(collection)
    totals = yearly_token_totals(collection)
    reports = trend_report(counter.time_series, yearly_totals=totals or None, min_total=args.tau)

    def describe(report) -> dict:
        surface = " ".join(collection.vocabulary.term(term_id) for term_id in report.ngram)
        return {
            "n-gram": surface,
            "total": report.total,
            "peak": report.peak,
            "slope": round(report.slope, 6),
        }

    print("== rising n-grams ==")
    print(format_table([describe(report) for report in reports[: args.top]]))
    print("== declining n-grams ==")
    print(format_table([describe(report) for report in reports[-args.top :][::-1]]))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-ngrams`` command."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "count": _cmd_count,
        "experiment": _cmd_experiment,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "merge-stores": _cmd_merge_stores,
        "rethreshold": _cmd_rethreshold,
        "diff-stores": _cmd_analytics,
        "intersect-stores": _cmd_analytics,
        "ingest": _cmd_ingest,
        "compact": _cmd_compact,
        "coderivatives": _cmd_coderivatives,
        "trends": _cmd_trends,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

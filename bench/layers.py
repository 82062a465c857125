"""The traced run: per-layer metrics of one workload.

One repetition of every phase of the workload runs with a live tracer, then
every layer of ``repro`` is probed through its public functions on data
captured from that pass, so each number is taken on the workload's own
records, keys and blocks.  Which end-to-end metric each
per-layer metric should move is tabulated in ``README.md``.
"""

from __future__ import annotations

import io
import os
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.algorithms import SuffixSigmaCounter, make_counter
from repro.config import NGramJobConfig
from repro.corpus.io import read_encoded_collection, write_encoded_collection
from repro.kvstore.spilling import SpillingKVStore
from repro.mapreduce.context import TaskContext
from repro.mapreduce.dataset import DatasetStorage, FileDataset, MemoryDataset
from repro.mapreduce.pipeline import JobPipeline
from repro.mapreduce.serialization import read_framed_records, record_size, write_framed_record
from repro.mapreduce.shuffle import ExternalShuffle, shuffle
from repro.ngramstore import (
    LSMStore,
    QueryEngine,
    StoreClient,
    plan_boundaries,
    sample_keys,
    total_order_sort_job,
)
from repro.ngramstore.format import decode_block, encode_block
from repro.ngramstore.wire import encode_message, read_message
from repro.util.bloom import BloomFilter
from repro.util.codecs import get_codec
from repro.util.varint import decode_sequence, encode_sequence

from bench import pipeline
from bench.measure import Metrics, closed_loop_rate, latencies_ns, percentile, repeat, spin, timed
from bench.pipeline import BATCH_KEYS, Checker, Oracle, Run
from bench.trace import Tracer
from bench.workloads import METHODS, SPILL_BYTES, Workload

Record = Tuple[Any, Any]


class Probe:
    """Times calls into one layer: one span per probe, the median of its repetitions."""

    def __init__(self, metrics: Metrics, tracer: Tracer, budget_s: float) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.budget_s = budget_s

    def seconds(self, name: str, fn: Callable[[], Any]) -> float:
        """Median seconds of ``fn``; the metric's layer is ``name`` without its last part."""
        with self.tracer.span(name):
            return statistics.median(repeat(fn, self.budget_s))

    def rate(self, name: str, unit: str, work: float, fn: Callable[[], Any]) -> None:
        self.metrics.value(name, unit, work / self.seconds(name, fn))


# ----------------------------------------------------- the traced pipeline
def traced_counts(run: Run, metrics: Metrics) -> None:
    """One traced call per method; counters and task times become metrics."""
    for method in METHODS:
        result = run.count(method)
        jobs = result.pipeline.job_metrics
        map_s = sum(task.elapsed_seconds for job in jobs for task in job.map_tasks)
        reduce_s = sum(task.elapsed_seconds for job in jobs for task in job.reduce_tasks)
        framework_s = sum(job.elapsed_seconds for job in jobs) - map_s - reduce_s
        counters = result.counters
        metrics.value(f"algorithms.{method}.jobs", "count", result.num_jobs)
        metrics.value(f"algorithms.{method}.map_s", "s", map_s)
        metrics.value(f"algorithms.{method}.reduce_s", "s", reduce_s)
        metrics.value(f"algorithms.{method}.map_output_records", "count", result.map_output_records)
        metrics.value(f"algorithms.{method}.map_output_bytes", "bytes", result.map_output_bytes)
        metrics.value(f"mapreduce.runner.framework_s.{method}", "s", framework_s)
        metrics.value(f"mapreduce.shuffle.spills.{method}", "count", counters.get("SHUFFLE_SPILLS"))
        metrics.value(
            f"mapreduce.shuffle.spilled_bytes.{method}", "bytes", counters.get("SPILLED_BYTES")
        )


def traced_reads(run: Run, slice_s: float, metrics: Metrics) -> None:
    """The read phases through the workload's own read path, with the store's counters."""
    workload, oracle, tracer, checker = run.workload, run.oracle, run.tracer, run.checker
    spread = [oracle.keys[index * len(oracle.keys) // 8] for index in range(8)]
    open_s, store = timed(lambda: pipeline.open_store(workload, run.store_dir, workload.cache_blocks))
    open_s += timed(lambda: [store.get(key) for key in spread])[0]
    store.close()
    metrics.value("ngramstore.reader.open_ms", "ms", open_s * 1e3)

    # The store's own counters, read on either side of each loop.
    for kind, store, phase in (
        ("cold", run.cold_store, run.cold_gets),
        ("hot", run.hot_store, run.hot_gets),
    ):
        cache_0, io_0 = store.cache_stats(), store.io_stats()
        latencies = phase(slice_s)
        cache_1, io_1 = store.cache_stats(), store.io_stats()
        hits, misses = cache_1.hits - cache_0.hits, cache_1.misses - cache_0.misses
        metrics.value(f"ngramstore.table.cache_hit_rate.{kind}", "ratio", hits / (hits + misses))
        metrics.value(
            f"ngramstore.reader.get_{kind}_p99_us", "us", percentile(sorted(latencies), 0.99) / 1e3
        )
        if kind == "cold":
            metrics.value(
                "ngramstore.reader.blocks_decoded_per_get", "count",
                (io_1["blocks_decoded"] - io_0["blocks_decoded"]) / len(latencies),
            )  # fmt: skip
            metrics.value(
                "ngramstore.reader.decode_s_share", "ratio",
                (io_1["decode_seconds"] - io_0["decode_seconds"]) / (sum(latencies) / 1e9),
            )  # fmt: skip
    run.prefix_scans(slice_s)

    store = run.cold_store
    # Absent keys: a present key with its last term replaced by one no corpus has.
    absent = [key[:-1] + (10**9,) for key in run.rng.choices(oracle.keys, k=2_000)]
    rejected_before = store.io_stats()["bloom_rejections"]
    with tracer.span("ngramstore.reader.get_absent"):
        absent_ns, answers = latencies_ns(store.get, absent)
    checker.expect_all(answers, [None] * len(absent))
    metrics.median("ngramstore.reader.get_absent_p50_us", "us", absent_ns, scale=1e-3)
    metrics.value(
        "ngramstore.reader.bloom_rejects_per_absent_get", "count",
        (store.io_stats()["bloom_rejections"] - rejected_before) / len(absent),
    )  # fmt: skip

    with tracer.span("ngramstore.reader.top_k"):
        top_s, top = timed(lambda: store.top_k(10))
    best = sorted(oracle.values.values(), reverse=True)[:10]
    checker.expect([value for _, value in top] == best)
    metrics.value("ngramstore.reader.topk10_ms", "ms", top_s * 1e3)
    with tracer.span("ngramstore.reader.items"):
        scan_s, scanned = timed(lambda: sum(1 for _ in store.items()))
    checker.expect(scanned == len(oracle.stored_keys))
    metrics.value("ngramstore.reader.scan_records_per_s", "records/s", scanned / scan_s)

    # The same cold gets with a span around each: what tracing itself costs.
    keys = run.rng.choices(oracle.keys, k=1_024)
    plain_ns, _ = latencies_ns(store.get, keys)

    def traced_get(key: Any) -> Any:
        with tracer.span("ngramstore.reader.get"):
            return store.get(key)

    traced_ns, _ = latencies_ns(traced_get, keys)
    metrics.value("bench.trace_overhead_ratio", "ratio", sum(traced_ns) / sum(plain_ns))

    engine = QueryEngine(store)
    get_requests = [{"op": "get", "key": list(key)} for key in keys]
    batch_requests = [
        {"op": "multi_get", "keys": [list(key) for key in keys[start : start + BATCH_KEYS]]}
        for start in range(0, len(keys), BATCH_KEYS)
    ]
    with tracer.span("ngramstore.api.handle"):
        get_ns, _ = latencies_ns(engine.handle, get_requests)
        batch_ns, responses = latencies_ns(engine.handle, batch_requests)
    checker.expect_all(responses[0]["values"], [oracle.values[key] for key in keys[:BATCH_KEYS]])
    metrics.median("ngramstore.api.engine_get_us", "us", get_ns, scale=1e-3)
    metrics.median("ngramstore.api.engine_multi_get64_us", "us", batch_ns, scale=1e-3)

    response = responses[0]
    frame = encode_message(response)
    with tracer.span("ngramstore.wire.encode_message"):
        encode_ns, _ = latencies_ns(encode_message, [response] * 500)
    with tracer.span("ngramstore.wire.read_message"):
        decode_ns, decoded = latencies_ns(lambda data: read_message(io.BytesIO(data)), [frame] * 500)
    checker.expect(decoded[0] == response)
    metrics.median("ngramstore.wire.encode_us", "us", encode_ns, scale=1e-3)
    metrics.median("ngramstore.wire.decode_us", "us", decode_ns, scale=1e-3)


def traced_serving(run: Run, slice_s: float, metrics: Metrics) -> None:
    """Round trips of single gets over each transport, and the JSON socket protocol."""
    oracle, tracer, checker = run.oracle, run.tracer, run.checker
    keys = run.rng.choices(oracle.keys, k=512)
    expected = [oracle.values[key] for key in keys]
    with pipeline.pinned_driver():
        with tracer.span("ngramstore.server.get"):
            rtt_ns, answers = latencies_ns(run.socket_client.get, keys)
        checker.expect_all(answers, expected)
        metrics.median("ngramstore.server.get_rtt_p50_us", "us", rtt_ns, scale=1e-3)

        client = StoreClient(*run.socket_address, protocol="json")
        try:
            answered: List[Tuple[List[Any], List[Any]]] = []

            def multi_get() -> int:
                batch = run.batch_pool[len(answered) % len(run.batch_pool)]
                answered.append((batch, client.multi_get(batch)))
                return BATCH_KEYS

            with tracer.span("ngramstore.server.multi_get_json"):
                rate = closed_loop_rate(multi_get, slice_s)
        finally:
            client.close()
        for batch, values in answered:
            checker.expect_all(values, [oracle.values[key] for key in batch])
        metrics.value("ngramstore.server.json_keys_per_s", "keys/s", rate)

        with tracer.span("ngramstore.http.get_rtt"):
            rtt_ns, answers = latencies_ns(run.http_client.get, keys[:24])
        checker.expect_all(answers, expected[:24])
        metrics.median("ngramstore.http.get_rtt_p50_ms", "ms", rtt_ns, scale=1e-6)


# ------------------------------------------------------------ layer probes
def resident(collection: Any) -> Any:
    """``collection`` with its documents in memory (a sharded corpus is read in)."""
    if hasattr(collection, "directory"):
        return read_encoded_collection(collection.directory, materialize=True)
    return collection


def probe_corpus_io(collection: Any, run_dir: str, probe: Probe) -> None:
    directory = os.path.join(run_dir, "probe-corpus")
    documents = resident(collection)
    write_s = probe.seconds("corpus.io.write", lambda: write_encoded_collection(documents, directory))
    read_s = probe.seconds("corpus.io.read", lambda: read_encoded_collection(directory))
    probe.metrics.value("corpus.io.write_s", "s", write_s)
    probe.metrics.value("corpus.io.read_s", "s", read_s)


def capture_map_output(workload: Workload, collection: Any) -> Tuple[List[Record], Any]:
    """SUFFIX-sigma's map output for the corpus, and the job that shuffles it."""
    counter = SuffixSigmaCounter(workload.job_config())
    job = counter.job_spec(collection)
    mapper, context = job.make_mapper(), TaskContext()
    mapper.setup(context)
    for key, value in counter.iter_input_records(collection):
        mapper.map(key, value, context)
    mapper.cleanup(context)
    return context.drain(), job


def probe_mapreduce(records: List[Record], job: Any, run_dir: str, probe: Probe) -> None:
    """Shuffle, serialization and dataset layers on captured map output."""
    count = len(records)
    partitions = job.num_reducers

    def external() -> int:
        with ExternalShuffle(
            job.partitioner, job.sort_comparator, partitions,
            spill_threshold_bytes=SPILL_BYTES, spill_dir=os.path.join(run_dir, "probe-spill"),
        ) as external_shuffle:  # fmt: skip
            external_shuffle.add_records(records)
            external_shuffle.finalize()
            return sum(
                1
                for part in external_shuffle.partition_inputs()
                for _ in part.sorted_records(job.sort_comparator)
            )

    probe.rate(
        "mapreduce.shuffle.memory_records_per_s", "records/s", count,
        lambda: shuffle(records, job.partitioner, job.sort_comparator, partitions),
    )  # fmt: skip
    probe.rate("mapreduce.shuffle.external_records_per_s", "records/s", count, external)

    def write_frames() -> bytes:
        buffer = io.BytesIO()
        for key, value in records:
            write_framed_record(buffer, key, value)
        return buffer.getvalue()

    frames = write_frames()
    probe.rate(
        "mapreduce.serialization.record_size_per_s", "records/s", count,
        lambda: [record_size(key, value) for key, value in records],
    )  # fmt: skip
    probe.rate("mapreduce.serialization.write_records_per_s", "records/s", count, write_frames)
    probe.rate(
        "mapreduce.serialization.read_records_per_s", "records/s", count,
        lambda: sum(1 for _ in read_framed_records(io.BytesIO(frames))),
    )  # fmt: skip

    storage = DatasetStorage(os.path.join(run_dir, "probe-datasets"))
    written: List[FileDataset] = []
    try:
        probe.rate(
            "mapreduce.dataset.file_write_records_per_s", "records/s", count,
            lambda: written.append(FileDataset.write(records, storage=storage, records_per_shard=4_096)),
        )  # fmt: skip
        probe.rate(
            "mapreduce.dataset.file_read_records_per_s", "records/s", count,
            lambda: sum(1 for _ in written[-1].iter_records()),
        )  # fmt: skip
    finally:
        storage.cleanup()


def probe_util(oracle: Oracle, blocks: List[List[Record]], probe: Probe) -> None:
    """kvstore, varint, codecs and bloom on the workload's own keys and blocks."""
    keys = oracle.keys
    dictionary = SpillingKVStore()
    for key in keys:
        dictionary.put(key, True)
    probe.rate(
        "kvstore.lookups_per_s", "lookups/s", len(keys),
        lambda: [dictionary.contains(key) for key in keys],
    )  # fmt: skip
    dictionary.close()

    encoded = [encode_sequence(key) for key in keys]
    probe.rate(
        "util.varint.encode_seq_per_s", "sequences/s", len(keys),
        lambda: [encode_sequence(key) for key in keys],
    )  # fmt: skip
    probe.rate(
        "util.varint.decode_seq_per_s", "sequences/s", len(keys),
        lambda: [decode_sequence(data) for data in encoded],
    )  # fmt: skip

    plain, gzip = get_codec("none"), get_codec("gzip")
    raw = [encode_block(block, plain) for block in blocks]
    packed = [gzip.compress(data) for data in raw]
    megabytes = sum(len(data) for data in raw) / 1e6
    probe.rate(
        "util.codecs.gzip_compress_mb_per_s", "MB/s", megabytes,
        lambda: [gzip.compress(data) for data in raw],
    )  # fmt: skip
    probe.rate(
        "util.codecs.gzip_decompress_mb_per_s", "MB/s", megabytes,
        lambda: [gzip.decompress(data) for data in packed],
    )  # fmt: skip

    blooms = [BloomFilter.build([key for key, _ in block]) for block in blocks]
    probes = [(bloom, key) for bloom, block in zip(blooms, blocks) for key, _ in block[:16]]
    probe.rate(
        "util.bloom.probe_per_s", "probes/s", len(probes),
        lambda: [bloom.might_contain(key) for bloom, key in probes],
    )  # fmt: skip
    absent = [(bloom, key[:-1] + (10**9 + index,)) for index, (bloom, key) in enumerate(probes)]
    passed = sum(1 for bloom, key in absent if bloom.might_contain(key))
    probe.metrics.value("util.bloom.false_positive_rate", "ratio", passed / len(absent))


def probe_format(workload: Workload, blocks: List[List[Record]], probe: Probe) -> None:
    codec = get_codec(workload.codec)
    payloads = [encode_block(block, codec) for block in blocks]
    encode_s = probe.seconds(
        "ngramstore.format.encode_block", lambda: [encode_block(block, codec) for block in blocks]
    )
    decode_s = probe.seconds(
        "ngramstore.format.decode_block",
        lambda: [decode_block(payload, codec) for payload in payloads],
    )
    probe.metrics.value("ngramstore.format.encode_block_us", "us", encode_s / len(blocks) * 1e6)
    probe.metrics.value("ngramstore.format.decode_block_us", "us", decode_s / len(blocks) * 1e6)
    probe.metrics.value(
        "ngramstore.format.block_bytes_mean", "bytes", statistics.mean(map(len, payloads))
    )


def probe_build(
    workload: Workload, collection: Any, records: List[Record], run_dir: str, probe: Probe
) -> None:
    """``build_store`` and the two parts of it that can be called on their own."""
    store = workload.store_config()
    dataset = MemoryDataset(sorted(records))
    boundaries = plan_boundaries(sample_keys(dataset, store.sample_size), store.num_partitions)
    build_s = probe.seconds(
        "ngramstore.build.build_store",
        lambda: pipeline.build_plain(workload, records, collection, os.path.join(run_dir, "probe-store")),
    )  # fmt: skip
    sample_s = probe.seconds(
        "ngramstore.build.sample_keys",
        lambda: plan_boundaries(sample_keys(dataset, store.sample_size), store.num_partitions),
    )  # fmt: skip
    sort_s = probe.seconds(
        "ngramstore.build.total_order_sort_job",
        lambda: JobPipeline().run_job(total_order_sort_job("probe-sort", boundaries), dataset),
    )  # fmt: skip
    probe.metrics.value("ngramstore.build.sample_s", "s", sample_s)
    probe.metrics.value("ngramstore.build.sort_job_s", "s", sort_s)
    probe.metrics.value("ngramstore.build.write_s", "s", build_s - sample_s - sort_s)


def probe_lsm(run: Run, metrics: Metrics) -> None:
    """Ingest in four batches, read through the generations, compact."""
    workload, oracle, tracer, checker = run.workload, run.oracle, run.tracer, run.checker
    batches = run.batches
    config = NGramJobConfig(min_frequency=1, max_length=workload.sigma)
    lsm = LSMStore.init(
        os.path.join(run.run_dir, "probe-lsm"),
        min_frequency=workload.tau, max_length=workload.sigma, store=workload.store_config(),
    )  # fmt: skip
    count_s = build_s = 0.0
    for batch in batches:
        with tracer.span("ngramstore.lsm.count_batch"):
            seconds, counted = timed(lambda: make_counter("suffix_sigma", config).run(batch))
        count_s += seconds
        with tracer.span("ngramstore.lsm.ingest_records"):
            seconds, _ = timed(
                lambda: lsm.ingest_records(counted.statistics.items(), vocabulary=batch.vocabulary)
            )
        build_s += seconds
    metrics.value("ngramstore.lsm.ingest_count_s", "s", count_s)
    metrics.value("ngramstore.lsm.ingest_build_s", "s", build_s)

    with tracer.span("ngramstore.lsm.view"):
        open_s, view = timed(lambda: lsm.view(cache_blocks=workload.cache_blocks))
    metrics.value("ngramstore.lsm.view_open_ms", "ms", open_s * 1e3)
    try:
        keys = run.rng.choices(oracle.keys, k=500)
        with tracer.span("ngramstore.lsm.get"):
            get_ns, answers = latencies_ns(view.get, keys)
        # Generations hold raw counts, which are the oracle's only at tau = 1
        # or on the LSM workload; presence is checked everywhere.
        checker.expect_all([value is not None for value in answers], [True] * len(keys))
        metrics.median("ngramstore.lsm.get_p50_us", "us", get_ns, scale=1e-3)
        metrics.value(
            "ngramstore.lsm.blocks_decoded_per_get", "count",
            view.io_stats()["blocks_decoded"] / len(keys),
        )  # fmt: skip
    finally:
        view.close()

    ingested_bytes = pipeline.table_bytes(lsm.root)
    with tracer.span("ngramstore.lsm.compact"):
        stats = lsm.compact(all_generations=True)
    live_bytes = pipeline.table_bytes(lsm.root)
    metrics.value("ngramstore.lsm.compact_s", "s", stats["elapsed_seconds"])
    metrics.value("ngramstore.merge.records_in", "count", stats["records_in"])
    metrics.value("ngramstore.merge.records_out", "count", stats["records_out"])
    metrics.value(
        "ngramstore.merge.records_per_s", "records/s", stats["records_in"] / stats["elapsed_seconds"]
    )
    # Table bytes the tree has written in all (the ingested generations and
    # the compaction's output) per byte that is live afterwards.
    metrics.value(
        "ngramstore.merge.write_amplification", "ratio", (ingested_bytes + live_bytes) / live_bytes
    )
    compacted = lsm.view(cache_blocks=workload.cache_blocks)
    try:
        checker.expect_all(
            compacted.multi_get(keys), [oracle.statistics.frequency(key) for key in keys]
        )
    finally:
        compacted.close()


# --------------------------------------------------------------- the run
def run_traced(
    workload: Workload, seed: int, seconds: float, run_dir: str, out_dir: str
) -> Tuple[Metrics, Checker, Dict[str, Any]]:
    """Measure every per-layer metric of ``workload`` and write its span file."""
    metrics = Metrics()
    tracer = Tracer(workload.name)
    probe = Probe(metrics, tracer, seconds / 100)
    slice_s = seconds / 60
    started = time.perf_counter()
    drift = [spin()]

    with tracer.span("bench.workload"), Run(workload, seed, run_dir, tracer) as run:
        # One traced repetition of every phase of the timed run.
        run.setup(0.0)
        traced_counts(run, metrics)
        drift.append(spin())
        run.build(0.0)
        run.ingest(0.0)
        run.compact(0.0)
        traced_reads(run, slice_s, metrics)
        drift.append(spin())
        run.serve_socket(slice_s)
        run.serve_http(slice_s)
        traced_serving(run, slice_s, metrics)
        drift.append(spin())

        ordered = sorted(run.records)
        size = workload.records_per_block
        blocks = [ordered[start : start + size] for start in range(0, len(ordered), size)][:64]
        records, job = capture_map_output(workload, run.collection)
        probe_corpus_io(run.collection, run_dir, probe)
        probe_mapreduce(records, job, run_dir, probe)
        probe_util(run.oracle, blocks, probe)
        probe_format(workload, blocks, probe)
        probe_build(workload, run.collection, run.records, run_dir, probe)
        drift.append(spin())
        probe_lsm(run, metrics)
        drift.append(spin())

    # One span per set-up: the run's own and the traced repetition's.
    metrics.median(
        "corpus.synthetic.generate_s", "s", tracer.durations("corpus.synthetic.generate")
    )
    metrics.median(
        "corpus.collection.encode_s", "s", tracer.durations("corpus.collection.encode")
    )
    metrics.median("bench.calib_spin_s", "s", drift)
    trace_file = os.path.join(out_dir, f"trace-{workload.name}.jsonl")
    tracer.write(trace_file)
    info = {
        "pinned": run.pinned,
        "tokens": run.collection.num_token_occurrences,
        "traced_wall_s": round(time.perf_counter() - started, 3),
        "trace_file": os.path.relpath(trace_file),
        "spans": len(tracer.spans),
        "self_time_by_layer": tracer.table(),
    }
    return metrics, run.checker, info

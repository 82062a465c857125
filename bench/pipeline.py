"""One workload run: every phase drives public functions of ``repro``.

A run prepares the corpus, the oracle, one store to read and two servers,
then measures in rounds.  One round runs a slice of *every* phase - one
set-up, each counting method, one store build, one ingest in four batches,
one compaction, a chunk of cold gets, hot gets and prefix scans, a slice of
served traffic over each transport - and the reported value of a metric is
the median over the rounds of the slice medians.  The sandbox's speed moves
by 20 % for seconds at a time; with every metric sampled in every round, a
slow spell costs each metric one or two of its samples and not one metric
all of them.

``run_end_to_end`` measures with tracing off.  The traced run in
``layers.py`` drives the same :class:`Run` for one round with a live tracer.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.algorithms import make_counter
from repro.corpus.collection import EncodedCollection
from repro.corpus.io import read_encoded_collection, write_encoded_collection
from repro.ngrams.reference import reference_ngram_statistics
from repro.ngramstore import (
    BlockCache,
    HttpStoreClient,
    LSMStore,
    NGramStore,
    StoreClient,
    build_store,
    load_manifest,
)

from bench.measure import Metrics, closed_loop_rate, latencies_ns, measure_rounds, timed_slice
from bench.trace import Tracer
from bench.workloads import (
    LSM_BATCHES,
    Workload,
    generate_corpus,
    most_frequent,
    split_batches,
)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Share of one round each phase's slice may use; a call that takes longer
#: than its slice still runs once.  ``unit`` and ``scale`` turn the slice's
#: samples (seconds, nanoseconds or operations per second) into the metric.
PHASES: Dict[str, Tuple[str, float, float]] = {
    # metric: (unit, scale, share)
    "setup_s": ("s", 1.0, 0.08),
    "count_s.naive": ("s", 1.0, 0.09),
    "count_s.apriori_scan": ("s", 1.0, 0.09),
    "count_s.apriori_index": ("s", 1.0, 0.09),
    "count_s.suffix_sigma": ("s", 1.0, 0.09),
    "build_s": ("s", 1.0, 0.07),
    "ingest_s": ("s", 1.0, 0.09),
    "compact_s": ("s", 1.0, 0.07),
    "get_cold_p50_us": ("us", 1e-3, 0.05),
    "get_hot_p50_us": ("us", 1e-3, 0.03),
    "prefix_p50_us": ("us", 1e-3, 0.05),
    "serve_keys_per_s": ("keys/s", 1.0, 0.15),
    "http_get_ops_per_s": ("ops/s", 1.0, 0.05),
}

#: A round aims at a twelfth of the run; calls longer than their slice make
#: rounds longer, so runs reach about 8.  No median is taken of fewer than 5.
TARGET_ROUNDS = 12
MIN_ROUNDS = 5

#: Keys per served ``multi_get`` request.
BATCH_KEYS = 64
PREFIX_LIMIT = 50
#: The hot reads draw Zipf(1.2) from this many keys, through a cache that
#: holds every block; the cold reads draw uniformly from all keys through
#: the workload's small cache.  Under Zipf(1.2) the five most popular keys
#: take 45 % of the draws, so which keys those are decides the median: every
#: slice draws a new universe and re-ranks it several times.
HOT_UNIVERSE = 512
HOT_RANKINGS = 8
HOT_CACHE_BLOCKS = 4_096
ZIPF_EXPONENT = 1.2


class Checker:
    """Counts operations attempted and operations whose answer was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def expect_all(self, got: Sequence[Any], want: Sequence[Any]) -> None:
        self.attempted += len(want)
        self.failed += sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))


class Oracle:
    """The answers the store must give, from the brute-force reference count."""

    def __init__(self, workload: Workload, collection: EncodedCollection) -> None:
        records = list(collection.records())
        #: What every counting method must return.
        self.statistics = reference_ngram_statistics(records, workload.tau, workload.sigma)
        #: What the store keeps of them, and the keys the read phases probe.
        stored = dict(most_frequent(self.statistics, workload.records))
        self.keys: List[Tuple[int, ...]] = sorted(stored)
        if workload.lsm_reads:
            # Un-compacted generations hold every count, not only those >= tau.
            full = reference_ngram_statistics(records, 1, workload.sigma)
            self.values: Dict[Tuple[int, ...], int] = full.as_dict()
        else:
            self.values = stored
        self.stored_keys: List[Tuple[int, ...]] = sorted(self.values)
        self.first_tokens = sorted({key[0] for key in self.keys})

    def corrupt(self) -> None:
        """Falsify one expected count, so that every counting run is wrong."""
        key = self.keys[0]
        self.values[key] += 1
        self.statistics.set(key, self.values[key])

    def prefix(self, first: int) -> List[Tuple[Tuple[int, ...], int]]:
        start = bisect_left(self.stored_keys, (first,))
        answer = []
        for key in self.stored_keys[start : start + PREFIX_LIMIT]:
            if key[0] != first:
                break
            answer.append((key, self.values[key]))
        return answer


# ------------------------------------------------------------------ set-up
def prepare_corpus(
    workload: Workload, seed: int, run_dir: str, tracer: Tracer
) -> EncodedCollection:
    """Everything a run does to its inputs before a timed phase can start."""
    with tracer.span("corpus.synthetic.generate"):
        raw = generate_corpus(workload, seed)
    with tracer.span("corpus.collection.encode"):
        collection = raw.encode()
    if workload.corpus_on_disk:
        directory = os.path.join(run_dir, "corpus")
        shutil.rmtree(directory, ignore_errors=True)
        with tracer.span("corpus.io.write_encoded_collection"):
            write_encoded_collection(collection, directory)
        with tracer.span("corpus.io.read_encoded_collection"):
            collection = read_encoded_collection(directory)
    return collection


# ------------------------------------------------------------------- store
def build_plain(
    workload: Workload, records: Sequence[Any], collection: EncodedCollection, store_dir: str
) -> str:
    """Counted ``(ngram, frequency)`` records -> one store directory."""
    return build_store(
        records,
        store_dir,
        store=workload.store_config(),
        vocabulary=collection.vocabulary,
    )


def ingest_batches(
    workload: Workload, batches: Sequence[EncodedCollection], lsm_dir: str, tracer: Tracer
) -> None:
    """Corpus batches -> one LSM generation each (count + build per batch)."""
    lsm = LSMStore.init(
        lsm_dir,
        min_frequency=workload.tau,
        max_length=workload.sigma,
        store=workload.store_config(),
    )
    for batch in batches:
        with tracer.span("ngramstore.lsm.ingest"):
            lsm.ingest(batch)


def table_bytes(store_dir: str) -> int:
    """Bytes of every ``.ngt`` table (main and residual) under ``store_dir``."""
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(store_dir)
        for name in files
        if name.endswith(".ngt")
    )


def stored_bytes_per_record(store_dir: str) -> float:
    """``.ngt`` bytes per record stored, main and residual tables together."""
    records = sum(
        partition["num_records"]
        for root, _, files in os.walk(store_dir)
        if "store.json" in files
        for partition in load_manifest(root)["partitions"]
    )
    return table_bytes(store_dir) / records


def open_store(workload: Workload, store_dir: str, cache_blocks: int) -> Any:
    """The store as a reader sees it: one cache shared by all partitions."""
    if workload.lsm_reads:
        return LSMStore.open(store_dir).view(cache_blocks=cache_blocks)
    return NGramStore.open(store_dir, cache=BlockCache(cache_blocks))


# ------------------------------------------------------------------ served
def spare_cpus() -> List[int]:
    """``[driver cpu, server cpu]`` when two CPUs can be pinned, else ``[]``."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:2] if len(cpus) >= 2 else []


@contextmanager
def served(
    workload: Workload, store_dir: str, run_dir: str, http: bool = False
) -> Iterator[Tuple[str, int]]:
    """``repro serve`` in a subprocess, on a CPU of its own where possible.

    Yields ``(host, port)``; the server is terminated and waited for on
    every way out.
    """
    ready_file = os.path.join(run_dir, f"ready-{'http' if http else 'socket'}")
    command = [
        sys.executable, "-m", "repro", "serve", store_dir,
        "--ready-file", ready_file, "--cache-blocks", str(workload.cache_blocks),
    ]  # fmt: skip
    if http:
        command.append("--http")
    environment = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED="0")
    server = subprocess.Popen(command, env=environment, stdout=subprocess.DEVNULL)
    try:
        cpus = spare_cpus()
        if cpus:
            os.sched_setaffinity(server.pid, {cpus[1]})
        deadline = time.monotonic() + 30
        while not os.path.exists(ready_file):
            if server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not come up (exit {server.poll()})")
            time.sleep(0.01)
        with open(ready_file, encoding="utf-8") as handle:
            host, port = handle.read().split()
        yield host, int(port)
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


@contextmanager
def pinned_driver() -> Iterator[bool]:
    """Keep this process off the servers' CPU for a served slice; yields ``pinned``."""
    cpus = spare_cpus()
    if not cpus:
        yield False
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield True
    finally:
        os.sched_setaffinity(0, allowed)


# ----------------------------------------------------------------- the run
class Run:
    """The state of one workload run and one method per phase.

    A phase method takes the seconds its slice may use and returns the
    slice's samples: seconds per call, nanoseconds per operation, or
    operations per second.  Answers are checked outside the timed regions.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        run_dir: str,
        tracer: Tracer,
        corrupt_oracle: bool = False,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.tracer = tracer
        self.checker = Checker()
        self.rng = random.Random(seed)
        self.pinned = False
        self._resources = ExitStack()

        self.config = workload.job_config()
        self.execution = workload.execution(run_dir)
        self.results: Dict[str, Any] = {}
        # What ``setup_s`` times: the corpus, and the one count that feeds
        # the store phases.  (The oracle is the benchmark's, not set-up.)
        self.collection = prepare_corpus(workload, seed, run_dir, tracer)
        self.oracle = Oracle(workload, self.collection)
        if corrupt_oracle:
            self.oracle.corrupt()
        #: The counted n-grams the store phases keep: see ``Workload.records``.
        self.records = most_frequent(self.count("suffix_sigma").statistics, workload.records)
        self.batches = split_batches(self.collection, LSM_BATCHES)
        #: The directory each timed writing phase made last, by kind.
        self.dirs: Dict[str, str] = {}
        self._directories = 0

        # The store every read and served phase uses, built once, untimed.
        if workload.lsm_reads:
            self.store_dir = os.path.join(run_dir, "lsm-generations")
            ingest_batches(workload, self.batches, self.store_dir, tracer)
        else:
            self.store_dir = os.path.join(run_dir, "store")
            with tracer.span("ngramstore.build.build_store"):
                build_plain(workload, self.records, self.collection, self.store_dir)

        self.batch_pool = [self.rng.choices(self.oracle.keys, k=BATCH_KEYS) for _ in range(256)]
        #: Seconds per operation of each latency phase, from its first slice's pilot.
        self.per_op_s: Dict[str, float] = {}

    def open(self) -> None:
        """Open the readers, start the two servers and connect one client to each."""
        enter = self._resources.enter_context
        workload = self.workload
        with self.tracer.span("ngramstore.reader.open"):
            self.cold_store = open_store(workload, self.store_dir, workload.cache_blocks)
            self._resources.callback(self.cold_store.close)
        self.hot_store = open_store(workload, self.store_dir, HOT_CACHE_BLOCKS)
        self._resources.callback(self.hot_store.close)
        host, port = enter(served(workload, self.store_dir, self.run_dir))
        self.socket_address = (host, port)
        self.socket_client = StoreClient(host, port, protocol="binary")
        self._resources.callback(self.socket_client.close)
        host, port = enter(served(workload, self.store_dir, self.run_dir, http=True))
        self.http_client = HttpStoreClient(f"http://{host}:{port}")
        self._resources.callback(self.http_client.close)

    def close(self) -> None:
        self._resources.close()

    def __enter__(self) -> "Run":
        try:
            self.open()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------------- phases
    def phases(self) -> List[Tuple[str, Callable[[float], List[float]]]]:
        """``(metric, phase method)`` in the order a round runs them.

        A closed loop, where this process mostly waits, is followed by a
        long call.  The set-up, whose parts are the shortest calls of all,
        and the binary closed loop, whose slices differ most from one to the
        next, have two places in the round each.
        """

        def count(method: str) -> Tuple[str, Callable[[float], List[float]]]:
            return f"count_s.{method}", lambda budget_s: timed_slice(
                lambda: self.count(method), budget_s
            )

        return [
            count("naive"),
            ("setup_s", self.setup),
            count("apriori_scan"),
            ("serve_keys_per_s", self.serve_socket),
            count("apriori_index"),
            count("suffix_sigma"),
            ("build_s", self.build),
            ("ingest_s", self.ingest),
            ("compact_s", self.compact),
            ("get_cold_p50_us", self.cold_gets),
            ("get_hot_p50_us", self.hot_gets),
            ("prefix_p50_us", self.prefix_scans),
            ("setup_s", self.setup),
            ("serve_keys_per_s", self.serve_socket),
            ("http_get_ops_per_s", self.serve_http),
        ]

    def setup(self, budget_s: float) -> List[float]:
        """What comes before the first count and the first store: see ``__init__``."""
        directory = os.path.join(self.run_dir, "setup")
        os.makedirs(directory, exist_ok=True)

        def set_up() -> None:
            collection = prepare_corpus(self.workload, self.seed, directory, self.tracer)
            self.count("suffix_sigma", collection)

        return timed_slice(set_up, budget_s)

    def count(self, method: str, collection: Optional[EncodedCollection] = None) -> Any:
        """Corpus -> ``CountingResult`` by ``method``; the statistics are checked."""
        with self.tracer.span(f"algorithms.{method}.run"):
            counter = make_counter(method, self.config, execution=self.execution)
            result = counter.run(self.collection if collection is None else collection)
        self.checker.expect(result.statistics == self.oracle.statistics)
        self.results[method] = result
        return result

    def fresh_dir(self, kind: str) -> str:
        """A directory of its own for one repetition; the last one of its ``kind`` goes."""
        if kind in self.dirs:
            shutil.rmtree(self.dirs[kind])
        self._directories += 1
        self.dirs[kind] = os.path.join(self.run_dir, f"{kind}-{self._directories}")
        return self.dirs[kind]

    def build(self, budget_s: float) -> List[float]:
        """The counted records -> one store directory (``build_store``)."""

        def build() -> None:
            with self.tracer.span("ngramstore.build.build_store"):
                build_plain(self.workload, self.records, self.collection, self.dirs["built"])

        return timed_slice(build, budget_s, before=lambda: self.fresh_dir("built"))

    def ingest(self, budget_s: float) -> List[float]:
        """Four corpus batches -> four LSM generations (count + build each)."""
        return timed_slice(
            lambda: ingest_batches(self.workload, self.batches, self.dirs["ingested"], self.tracer),
            budget_s,
            before=lambda: self.fresh_dir("ingested"),
        )

    def compact(self, budget_s: float) -> List[float]:
        """The generations ``ingest`` made last -> one generation thresholded at tau.

        Every repetition compacts a copy of its own, made outside the stopwatch.
        """

        def compact() -> None:
            with self.tracer.span("ngramstore.lsm.compact"):
                LSMStore.open(self.dirs["compacted"]).compact(all_generations=True)

        return timed_slice(
            compact,
            budget_s,
            before=lambda: shutil.copytree(self.dirs["ingested"], self.fresh_dir("compacted")),
        )

    def check_written(self) -> None:
        """What the last timed build and the last timed compaction wrote answers like the oracle."""
        keys = self.rng.sample(self.oracle.keys, min(1_000, len(self.oracle.keys)))
        want = [self.oracle.statistics.frequency(key) for key in keys]
        for store in (
            NGramStore.open(self.dirs["built"]),
            LSMStore.open(self.dirs["compacted"]).view(),
        ):
            try:
                self.checker.expect_all(store.multi_get(keys), want)
            finally:
                store.close()

    def _chunk(
        self,
        name: str,
        fn: Callable[[Any], Any],
        arguments: Callable[[int], List[Any]],
        budget_s: float,
        floor: int,
        ceiling: int,
    ) -> List[Any]:
        """A slice's arguments: as many as fit its budget, by a pilot's cost per call."""
        if name not in self.per_op_s:
            pilot_ns, _ = latencies_ns(fn, arguments(100))
            self.per_op_s[name] = statistics.mean(pilot_ns) / 1e9
        return arguments(max(floor, min(ceiling, int(budget_s / self.per_op_s[name]))))

    def cold_gets(self, budget_s: float) -> List[float]:
        oracle, store = self.oracle, self.cold_store
        keys = self._chunk(
            "cold", store.get, lambda count: self.rng.choices(oracle.keys, k=count),
            budget_s, 300, 5_000,
        )  # fmt: skip
        with self.tracer.span("ngramstore.reader.get_cold"):
            latencies, values = latencies_ns(store.get, keys)
        self.checker.expect_all(values, [oracle.values[key] for key in keys])
        return latencies

    def hot_gets(self, budget_s: float) -> List[float]:
        oracle, store, rng = self.oracle, self.hot_store, self.rng
        universe = rng.sample(oracle.keys, min(HOT_UNIVERSE, len(oracle.keys)))
        zipf = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(universe))]
        for key in universe:  # the warming pass
            store.get(key)

        def draws(count: int) -> List[Any]:
            keys: List[Any] = []
            for _ in range(HOT_RANKINGS):
                rng.shuffle(universe)
                keys += rng.choices(universe, weights=zipf, k=count // HOT_RANKINGS + 1)
            return keys

        keys = self._chunk("hot", store.get, draws, budget_s, 2_000, 20_000)
        with self.tracer.span("ngramstore.reader.get_hot"):
            latencies, values = latencies_ns(store.get, keys)
        self.checker.expect_all(values, [oracle.values[key] for key in keys])
        return latencies

    def prefix_scans(self, budget_s: float) -> List[float]:
        oracle, store = self.oracle, self.cold_store

        def prefix(first: int) -> List[Any]:
            return [tuple(record) for record in store.prefix((first,), limit=PREFIX_LIMIT)]

        firsts = self._chunk(
            "prefix", prefix, lambda count: self.rng.choices(oracle.first_tokens, k=count),
            budget_s, 100, 2_000,
        )  # fmt: skip
        with self.tracer.span("ngramstore.reader.prefix"):
            latencies, answers = latencies_ns(prefix, firsts)
        self.checker.expect_all(answers, [oracle.prefix(first) for first in firsts])
        return latencies

    def serve_socket(self, budget_s: float) -> List[float]:
        """One connection's closed loop of 64-key ``multi_get`` requests, binary protocol."""
        answered: List[Tuple[List[Any], List[Any]]] = []
        pool = self.batch_pool
        start = self.rng.randrange(len(pool))

        def multi_get() -> int:
            keys = pool[(start + len(answered)) % len(pool)]
            answered.append((keys, self.socket_client.multi_get(keys)))
            return BATCH_KEYS

        with pinned_driver() as self.pinned, self.tracer.span("ngramstore.server.multi_get"):
            rate = closed_loop_rate(multi_get, budget_s)
        for keys, values in answered:
            self.checker.expect_all(values, [self.oracle.values[key] for key in keys])
        return [rate]

    def serve_http(self, budget_s: float) -> List[float]:
        """One keep-alive connection's closed loop of ``get`` requests over HTTP."""
        keys = self.rng.choices(self.oracle.keys, k=1_024)
        fetched: List[Any] = []

        def get() -> int:
            fetched.append(self.http_client.get(keys[len(fetched) % len(keys)]))
            return 1

        with pinned_driver(), self.tracer.span("ngramstore.http.get"):
            rate = closed_loop_rate(get, budget_s)
        self.checker.expect_all(
            fetched, [self.oracle.values[keys[index % len(keys)]] for index in range(len(fetched))]
        )
        return [rate]


def run_end_to_end(
    workload: Workload,
    seed: int,
    seconds: float,
    run_dir: str,
    min_rounds: int = MIN_ROUNDS,
    corrupt_oracle: bool = False,
) -> Tuple[Metrics, Checker, Dict[str, Any]]:
    """Measure every end-to-end metric of ``workload`` with tracing off."""
    metrics = Metrics()
    off = Tracer(workload.name, enabled=False)
    with Run(workload, seed, run_dir, off, corrupt_oracle) as run:
        shares = {name: share for name, (_, _, share) in PHASES.items()}
        rounds = measure_rounds(run.phases(), shares, seconds, TARGET_ROUNDS, min_rounds)
        for name, (unit, scale, _) in PHASES.items():
            metrics.median(name, unit, [values[name] for values in rounds], scale)
        run.check_written()
        metrics.value(
            "shuffle_bytes.suffix_sigma", "bytes", run.results["suffix_sigma"].map_output_bytes
        )
        metrics.value(
            "store_bytes_per_record", "bytes/record", stored_bytes_per_record(run.dirs["compacted"])
        )
        info = {
            "pinned": run.pinned,
            "rounds": len(rounds),
            "tokens": run.collection.num_token_occurrences,
            "ngrams": len(run.oracle.keys),
            "stored_records": len(run.oracle.stored_keys),
        }
    metrics.value(
        "peak_rss_mb", "MiB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return metrics, run.checker, info

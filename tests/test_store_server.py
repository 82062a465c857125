"""Tests for the store query server, its client, and reader thread-safety."""

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.config import ServerConfig, StoreConfig
from repro.exceptions import StoreConnectionError, StoreError
from repro.ngramstore import (
    BlockCache,
    NGramStore,
    NGramStoreServer,
    StoreClient,
    build_store,
)
from repro.ngramstore.server import percentile
from repro.ngramstore.service import ServerMetrics


def make_records(count=600, seed=13, max_term=50, max_len=4):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, max_term) for _ in range(rng.randint(1, max_len))))
    return [(key, rng.randint(1, 400)) for key in sorted(keys)]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("server-store") / "store")
    build_store(
        make_records(),
        directory,
        store=StoreConfig(num_partitions=3, records_per_block=32),
        metadata={"origin": "test_store_server"},
    )
    return directory


@pytest.fixture()
def server(store_dir):
    with NGramStoreServer(
        store_dir, config=ServerConfig(port=0, cache_blocks=16, max_clients=8)
    ) as running:
        yield running


@pytest.fixture()
def expected():
    return dict(make_records())


class TestProtocol:
    def test_get_prefix_top_k_match_direct_store(self, server, store_dir, expected):
        with NGramStore.open(store_dir) as direct, StoreClient(server.host, server.port) as client:
            for key in list(expected)[::19]:
                assert client.get(key) == direct.get(key)
            assert client.get((9999,)) is None
            assert client.get((9999,), default=-1) == -1
            first_terms = sorted({key[0] for key in expected})
            for term in first_terms[:5]:
                assert client.prefix((term,)) == list(direct.prefix((term,)))
            assert client.top_k(10) == direct.top_k(10)
            assert client.top_k(10, order="key") == direct.top_k(10, order="key")

    def test_prefix_limit_truncates(self, server, store_dir, expected):
        term = sorted({key[0] for key in expected})[0]
        with NGramStore.open(store_dir) as direct, StoreClient(server.host, server.port) as client:
            full = list(direct.prefix((term,)))
            assert len(full) > 2
            limited = client.prefix((term,), limit=2)
            assert limited == full[:2]

    def test_stats_reports_manifest(self, server, expected):
        with StoreClient(server.host, server.port) as client:
            stats = client.stats()
            assert stats["num_records"] == len(expected)
            assert stats["num_partitions"] == 3
            assert stats["metadata"]["origin"] == "test_store_server"

    def test_ping_and_server_stats(self, server):
        with StoreClient(server.host, server.port) as client:
            assert client.ping()
            client.top_k(3)
            stats = client.server_stats()
            assert stats["requests"] >= 2
            assert stats["operations"]["ping"]["count"] >= 1
            assert "p50_us" in stats["operations"]["ping"]
            assert stats["cache"]["capacity_blocks"] == 16
            assert stats["cache"]["misses"] > 0

    def test_bad_requests_answered_not_fatal(self, server):
        with StoreClient(server.host, server.port) as client:
            with pytest.raises(StoreError, match="unknown op"):
                client._call({"op": "frobnicate"})
            with pytest.raises(StoreError, match="JSON array"):
                client._call({"op": "get", "key": "not-a-list"})
            with pytest.raises(StoreError, match="k must be"):
                client.top_k(0)
            with pytest.raises(StoreError, match="order"):
                client.top_k(3, order="bogus")
            # A bool is not a limit: true used to answer one record, false none.
            for limit in (-4, True, False):
                with pytest.raises(StoreError, match="limit"):
                    client._call({"op": "prefix", "key": [1], "limit": limit})
            # The pre-redesign spellings are no longer mapped onto "key".
            for request in ({"op": "get", "ngram": [1]}, {"op": "prefix", "tokens": [1]}):
                with pytest.raises(StoreError, match="key must be a JSON array"):
                    client._call(request)
            # The connection survived every error above.
            assert client.ping()

    def test_malformed_json_is_an_error_response(self, server):
        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            raw.sendall(b"this is not json\n")
            response = json.loads(raw.makefile("rb").readline())
            assert response["ok"] is False

    def test_errors_counted_in_metrics(self, server):
        with StoreClient(server.host, server.port) as client:
            before = client.server_stats()["errors"]
            with pytest.raises(StoreError):
                client._call({"op": "nope"})
            assert client.server_stats()["errors"] == before + 1

    def test_unknown_ops_share_one_metrics_bucket(self, server):
        """Client-chosen op strings must not grow the metrics dict unboundedly."""
        with StoreClient(server.host, server.port) as client:
            for index in range(5):
                with pytest.raises(StoreError):
                    client._call({"op": f"evil-{index}"})
            operations = client.server_stats()["operations"]
            assert operations["invalid"]["count"] >= 5
            assert not any(name.startswith("evil-") for name in operations)

    def test_prefix_server_cap(self, server, store_dir, expected, monkeypatch):
        """Uncapped prefix responses are bounded server-side, loudly."""
        import repro.ngramstore.api as api_module

        term = sorted({key[0] for key in expected})[0]
        full = [record for record in sorted(expected.items()) if record[0][0] == term]
        assert len(full) > 2
        # The cap is enforced by the shared QueryEngine (repro.ngramstore.api).
        monkeypatch.setattr(api_module, "MAX_PREFIX_RECORDS", 2)
        with StoreClient(server.host, server.port) as client:
            # Explicit limits within the cap still work...
            assert client.prefix((term,), limit=2) == full[:2]
            # ...but an uncapped request that got truncated raises rather
            # than silently returning a partial answer...
            with pytest.raises(StoreError, match="truncated"):
                client.prefix((term,))
            # ...and so does an explicit limit above the server cap.
            with pytest.raises(StoreError, match="truncated"):
                client.prefix((term,), limit=len(full) + 5)

    def test_top_k_k_capped(self, server):
        from repro.ngramstore.api import MAX_TOP_K

        with StoreClient(server.host, server.port) as client:
            with pytest.raises(StoreError, match="must be <="):
                client.top_k(MAX_TOP_K + 1)


class TestConcurrency:
    def test_concurrent_clients_byte_identical(self, server, store_dir, expected):
        """Many threads, own connections each: responses == direct reads."""
        with NGramStore.open(store_dir) as direct:
            reference_top = direct.top_k(10)
            keys = sorted(expected)

            def hammer(seed):
                rng = random.Random(seed)
                with StoreClient(server.host, server.port) as client:
                    for _ in range(40):
                        key = rng.choice(keys)
                        assert client.get(key) == expected[key]
                    missing = (10_000, seed)
                    assert client.get(missing) is None
                    term = rng.choice(keys)[0]
                    assert client.prefix((term,)) == [
                        record for record in sorted(expected.items()) if record[0][0] == term
                    ]
                    assert client.top_k(10) == reference_top
                    return True

            with ThreadPoolExecutor(max_workers=8) as pool:
                assert all(pool.map(hammer, range(12)))

    def test_max_clients_backpressure(self, store_dir, expected):
        """More concurrent clients than handler slots: all still served."""
        with NGramStoreServer(
            store_dir, config=ServerConfig(port=0, cache_blocks=8, max_clients=2)
        ) as server:
            sample = sorted(expected)[::37]

            def query(seed):
                with StoreClient(server.host, server.port) as client:
                    time.sleep(0.01)
                    return [client.get(key) for key in sample]

            reference = [expected[key] for key in sample]
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(query, range(6)))
            assert all(result == reference for result in results)
            assert server.service.metrics.snapshot()["connections_accepted"] == 6

    def test_graceful_shutdown(self, store_dir):
        server = NGramStoreServer(store_dir, config=ServerConfig(port=0))
        host, port = server.start()
        client = StoreClient(host, port)
        assert client.ping()
        server.close()
        # The open connection is dropped; a fresh connect must not reach a
        # live handler either (loopback self-connect may let the TCP dial
        # itself succeed, so assert at the protocol level, not connect()).
        with pytest.raises((StoreError, OSError, ValueError)):
            client.ping()
        client.close()
        with pytest.raises((StoreError, OSError, ValueError)):
            with StoreClient(
                host, port, connect_timeout=2, read_timeout=2, max_retries=0
            ) as late:
                late.ping()
        # Idempotent close, and the underlying store is closed too.
        server.close()
        with pytest.raises(StoreError, match="closed"):
            server.service.store.get((1,))

    def test_double_start_rejected(self, store_dir):
        with NGramStoreServer(store_dir, config=ServerConfig(port=0)) as server:
            with pytest.raises(StoreError, match="already started"):
                server.start()

    def test_caller_managed_store_reports_real_cache_stats(self, store_dir, expected):
        """A store with private per-table caches must not report zeros."""
        store = NGramStore.open(store_dir, cache_blocks=8)
        with NGramStoreServer(store, config=ServerConfig(port=0)) as server:
            with StoreClient(server.host, server.port) as client:
                for key in sorted(expected)[::31]:
                    assert client.get(key) == expected[key]
                stats = client.server_stats()
            assert stats["cache"]["misses"] > 0  # per-table aggregate, not an orphan cache
            assert "capacity_blocks" not in stats["cache"]  # no single shared cache exists


class TestReaderThreadSafety:
    """The satellite regression: lazy init + cache under a thread pool."""

    def test_hammered_store_opens_each_table_once(self, store_dir, expected, monkeypatch):
        import repro.ngramstore.reader as reader_module

        opens = []
        real_table = reader_module.Table

        class CountingTable(real_table):
            def __init__(self, path, **kwargs):
                opens.append(path)
                super().__init__(path, **kwargs)

        monkeypatch.setattr(reader_module, "Table", CountingTable)
        keys = sorted(expected)
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        store = NGramStore.open(store_dir, cache=BlockCache(16))

        def hammer(seed):
            rng = random.Random(seed)
            barrier.wait()  # maximise contention on first-touch lazy opens
            for _ in range(150):
                key = rng.choice(keys)
                assert store.get(key) == expected[key]
            return 150

        with store:
            with ThreadPoolExecutor(max_workers=num_threads) as pool:
                total = sum(pool.map(hammer, range(num_threads)))
            # Guarded lazy init: one Table per partition, ever.
            assert len(opens) == store.num_partitions
            assert len(set(opens)) == store.num_partitions
            # Guarded cache counters: every get touches exactly one block,
            # so lookups account for each of the 1200 gets exactly once.
            stats = store.cache_stats()
            assert stats.hits + stats.misses == total

    def test_shared_cache_capacity_is_global(self, store_dir, expected):
        cache = BlockCache(2)
        with NGramStore.open(store_dir, cache=cache) as store:
            for key in sorted(expected)[::11]:
                assert store.get(key) == expected[key]
            assert len(cache) <= 2
            stats = store.cache_stats()
            assert stats.evictions > 0

    def test_concurrent_scans_and_top_k(self, store_dir, expected):
        """Range scans share table handles with point lookups safely."""
        with NGramStore.open(store_dir, cache=BlockCache(8)) as store:
            reference_items = sorted(expected.items())
            reference_top = store.top_k(5)

            def scan_worker(_):
                assert list(store.items()) == reference_items
                return True

            def point_worker(seed):
                rng = random.Random(seed)
                for _ in range(50):
                    key = rng.choice(reference_items)[0]
                    assert store.get(key) == expected[key]
                assert store.top_k(5) == reference_top
                return True

            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(scan_worker if index % 2 else point_worker, index)
                    for index in range(8)
                ]
                assert all(future.result() for future in futures)


class TestServeCLI:
    def test_serve_subprocess_end_to_end(self, store_dir, expected, tmp_path):
        """The real CLI: ready-file handshake, queries, SIGTERM, metrics."""
        ready = str(tmp_path / "ready.txt")
        metrics_path = str(tmp_path / "metrics.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                store_dir,
                "--port",
                "0",
                "--cache-blocks",
                "32",
                "--max-clients",
                "4",
                "--ready-file",
                ready,
                "--metrics-file",
                metrics_path,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 30
            while not os.path.exists(ready):
                assert process.poll() is None, process.stderr.read()
                assert time.time() < deadline, "server did not become ready"
                time.sleep(0.05)
            host, port = open(ready, encoding="utf-8").read().split()
            with StoreClient(host, int(port)) as client:
                top = client.top_k(5)
                assert [tuple(k) for k, _ in top] == [k for k, _ in top]
                assert client.stats()["num_records"] == len(expected)
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "serving" in stdout
        metrics = json.load(open(metrics_path, encoding="utf-8"))
        assert metrics["operations"]["top_k"]["count"] == 1
        assert metrics["cache"]["misses"] > 0

    def test_serve_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope")]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_serve_metrics_interval_requires_file(self, store_dir, capsys):
        assert main(["serve", store_dir, "--metrics-interval", "1"]) == 2
        assert "--metrics-file" in capsys.readouterr().err

    def test_serve_periodic_metrics_and_sigterm_during_load(self, store_dir, tmp_path):
        """Periodic snapshots land while serving, the slow-query log fills,
        and a SIGTERM arriving mid-load still produces the final snapshot
        — with both files in directories that did not exist beforehand."""
        ready = str(tmp_path / "ready.txt")
        metrics_path = tmp_path / "obs" / "nested" / "metrics.json"
        slow_path = tmp_path / "obs" / "logs" / "slow.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                store_dir,
                "--port",
                "0",
                "--ready-file",
                ready,
                "--metrics-file",
                str(metrics_path),
                "--metrics-interval",
                "0.1",
                "--slow-query-ms",
                "0",
                "--slow-query-log",
                str(slow_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        stop_load = threading.Event()

        def load(host, port):
            try:
                with StoreClient(host, int(port)) as client:
                    while not stop_load.is_set():
                        client.get((1, 2))
            except (StoreError, StoreConnectionError, OSError):
                pass  # the server going away mid-load is the point

        loader = None
        try:
            deadline = time.time() + 30
            while not os.path.exists(ready):
                assert process.poll() is None, process.stderr.read()
                assert time.time() < deadline, "server did not become ready"
                time.sleep(0.05)
            host, port = open(ready, encoding="utf-8").read().split()
            loader = threading.Thread(target=load, args=(host, port))
            loader.start()
            # A periodic snapshot must appear while requests are in flight.
            while not metrics_path.exists():
                assert process.poll() is None
                assert time.time() < deadline, "no periodic metrics snapshot"
                time.sleep(0.05)
            periodic = json.loads(metrics_path.read_text(encoding="utf-8"))
            assert "operations" in periodic
            # SIGTERM lands while the loader is still hammering the server.
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=30)
        finally:
            stop_load.set()
            if loader is not None:
                loader.join(timeout=10)
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        final = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert final["operations"]["get"]["count"] >= 1
        entries = [
            json.loads(line)
            for line in slow_path.read_text(encoding="utf-8").splitlines()
        ]
        assert any(entry["op"] == "get" and entry["trace_id"] for entry in entries)

    def test_serve_smoke_driver(self, store_dir, tmp_path):
        """The CI serve-smoke script passes against a freshly built store."""
        from benchmarks import serve_smoke

        report_path = str(tmp_path / "latency.json")
        assert (
            serve_smoke.main(
                [
                    "--store",
                    store_dir,
                    "--clients",
                    "3",
                    "--requests",
                    "10",
                    "--report",
                    report_path,
                    "--baseline",
                    store_dir,
                    "--scale",
                    "1",
                ]
            )
            == 0
        )
        report = json.load(open(report_path, encoding="utf-8"))
        for operation in ("get", "prefix", "top_k"):
            assert report["operations"][operation]["p50_us"] > 0
        assert report["server"]["cache"]["hits"] > 0


class TestRecordShape:
    def test_records_unpack_like_plain_tuples(self, server, store_dir):
        """Records unpack and compare like plain (key, value) tuples."""
        with NGramStore.open(store_dir) as direct, StoreClient(server.host, server.port) as client:
            for source in (direct, client):
                (record,) = source.top_k(1)
                key, value = record
                assert record == (key, value)

    def test_term_ops_without_vocabulary_are_clean_errors(self, server):
        """This module's store has no dictionary: term ops must say so."""
        with StoreClient(server.host, server.port) as client:
            with pytest.raises(StoreError, match="vocabulary"):
                client.get_terms(["anything"])
            # ...and the connection survives the error.
            assert client.ping()


class TestClientResilience:
    def test_reconnects_after_server_drops_connection(self, server, expected):
        """A dropped socket triggers a transparent reconnect, not a failure."""
        key = sorted(expected)[0]
        with StoreClient(server.host, server.port) as client:
            assert client.get(key) == expected[key]
            # Kill every server-side connection out from under the client.
            with server._connections_lock:
                connections = list(server._connections)
            assert connections
            for connection in connections:
                connection.shutdown(socket.SHUT_RDWR)
            # The idempotent read is retried on a fresh connection.
            assert client.get(key) == expected[key]

    def test_refused_connection_is_bounded_and_typed(self):
        from repro.exceptions import StoreConnectionError

        # A port nothing listens on: bind-then-close to find one.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.perf_counter()
        with pytest.raises(StoreConnectionError, match="cannot connect"):
            StoreClient("127.0.0.1", port, max_retries=2, backoff=0.01)
        # Bounded: 3 attempts with tiny backoff, not an unbounded loop.
        assert time.perf_counter() - started < 5.0

    def test_failed_replica_falls_over_to_survivor(self, store_dir, expected):
        """Live failover: kill one of two replicas mid-stream."""
        from repro.ngramstore import ReplicaPool

        victim = NGramStoreServer(store_dir, config=ServerConfig(port=0))
        victim.start()
        survivor = NGramStoreServer(store_dir, config=ServerConfig(port=0))
        survivor.start()
        try:
            pool = ReplicaPool(
                [
                    StoreClient(victim.host, victim.port, max_retries=0),
                    StoreClient(survivor.host, survivor.port, max_retries=0),
                ]
            )
            keys = sorted(expected)[::101]
            for key in keys:
                assert pool.get(key) == expected[key]
            victim.close()
            # Every key still answered, regardless of rotation position.
            for key in keys:
                assert pool.get(key) == expected[key]
            pool.close()
        finally:
            victim.close()
            survivor.close()


class TestBinaryProtocol:
    """The protocol matrix and hostile binary frames."""

    @pytest.mark.parametrize("protocol", ["binary", "json"])
    def test_protocol_matrix_answers_identically(self, server, store_dir, expected, protocol):
        """The acceptance bar: results byte-identical across protocols."""
        with NGramStore.open(store_dir) as direct:
            with StoreClient(server.host, server.port, protocol=protocol) as client:
                keys = sorted(expected)[::23] + [(9999,)]
                assert [client.get(key) for key in keys] == [
                    direct.get(key) for key in keys
                ]
                assert client.multi_get(keys) == [direct.get(key) for key in keys]
                terms = sorted({key[0] for key in expected})[:3]
                prefixes = [(term,) for term in terms]
                assert client.multi_prefix(prefixes) == [
                    list(direct.prefix(prefix)) for prefix in prefixes
                ]
                assert client.prefix(prefixes[0]) == list(direct.prefix(prefixes[0]))
                assert client.top_k(10) == direct.top_k(10)
                assert client.top_k(10, order="key") == direct.top_k(10, order="key")
                assert client.stats() == direct.stats()
                assert client.ping()

    def test_binary_errors_answered_in_stream(self, server):
        """Decodable-but-invalid requests keep the connection alive."""
        with StoreClient(server.host, server.port, protocol="binary") as client:
            with pytest.raises(StoreError, match="unknown op"):
                client._call({"op": "frobnicate"})
            with pytest.raises(StoreError, match="k must be"):
                client.top_k(0)
            assert client.ping()  # the connection survived both errors

    def test_truncated_frame_closes_connection_not_server(self, server, expected):
        """A chopped frame is answered with an error, then the stream dies."""
        from repro.ngramstore.wire import WIRE_MAGIC, encode_message, read_message

        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            reader = raw.makefile("rb")
            raw.sendall(WIRE_MAGIC + b"\n")
            assert read_message(reader)["protocol"] == "binary"
            # A frame that claims more bytes than will ever arrive.
            raw.sendall(encode_message({"op": "ping"})[:-2])
            raw.shutdown(socket.SHUT_WR)
            error = read_message(reader)
            assert error["ok"] is False
            assert reader.read() == b""  # server closed the stream after it
        # The server itself survived and serves fresh connections.
        with StoreClient(server.host, server.port) as client:
            key = sorted(expected)[0]
            assert client.get(key) == expected[key]

    def test_oversized_frame_rejected(self, server):
        from repro.ngramstore.server import MAX_REQUEST_BYTES
        from repro.ngramstore.wire import WIRE_MAGIC, read_message
        from repro.util.varint import encode_varint

        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            reader = raw.makefile("rb")
            raw.sendall(WIRE_MAGIC + b"\n")
            assert read_message(reader)["protocol"] == "binary"
            raw.sendall(encode_varint(MAX_REQUEST_BYTES + 1))
            error = read_message(reader)
            assert error["ok"] is False
            assert "exceeds" in error["error"]

    def test_binary_client_reconnects_after_drop(self, server, expected):
        """The resilience path re-opens the binary framing on reconnect."""
        key = sorted(expected)[0]
        with StoreClient(server.host, server.port, protocol="binary") as client:
            assert client.get(key) == expected[key]
            with server._connections_lock:
                connections = list(server._connections)
            for connection in connections:
                connection.shutdown(socket.SHUT_RDWR)
            assert client.get(key) == expected[key]

    def test_multi_prefix_validation(self, server):
        with StoreClient(server.host, server.port) as client:
            assert client.multi_prefix([]) == []
            with pytest.raises(StoreError, match="JSON array"):
                client._call({"op": "multi_prefix", "keys": "nope"})
            with pytest.raises(StoreError, match="limit"):
                client._call({"op": "multi_prefix", "keys": [[1]], "limit": -2})

    def test_invalid_protocol_argument(self, server):
        with pytest.raises(StoreError, match="protocol"):
            StoreClient(server.host, server.port, protocol="carrier-pigeon")


class TestMetricsHelpers:
    def test_percentile_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.50) == 2.0
        assert percentile(samples, 0.90) == 4.0
        assert percentile(samples, 0.99) == 4.0
        assert percentile([7.0], 0.50) == 7.0

    def test_metrics_aggregate_and_snapshot(self):
        metrics = ServerMetrics()
        for index in range(10):
            metrics.record("get", 0.001 * (index + 1), ok=True)
        metrics.record("get", 0.5, ok=False)
        snapshot = metrics.snapshot()
        entry = snapshot["operations"]["get"]
        assert entry["count"] == 11
        assert entry["errors"] == 1
        assert snapshot["errors"] == 1
        assert entry["p50_us"] <= entry["p99_us"] <= entry["max_us"]

    def test_percentiles_weigh_every_observation(self):
        """Regression: the old implementation kept only the *first* N
        latency samples per operation, so a server that warmed up fast and
        degraded later reported its warm-up percentiles forever.  The
        histogram-backed metrics must see the degradation."""
        metrics = ServerMetrics()
        for _ in range(1500):
            metrics.record("get", 0.001, ok=True)
        for _ in range(1500):
            metrics.record("get", 0.2, ok=True)
        entry = metrics.snapshot()["operations"]["get"]
        assert entry["count"] == 3000
        # Half the observations sit at 200 ms: p90 and p99 must be up
        # there, not at the 1 ms the first arrivals showed.
        assert entry["p90_us"] > 50_000
        assert entry["p99_us"] > 50_000
        assert entry["p50_us"] <= entry["p99_us"] <= entry["max_us"]

    def test_stage_histograms_in_snapshot(self):
        metrics = ServerMetrics()
        metrics.record_stage("route", 0.0001)
        metrics.record_stage("block_read", 0.002)
        metrics.record_stage("block_read", 0.004)
        stages = metrics.snapshot()["stages"]
        assert stages["block_read"]["count"] == 2
        assert stages["route"]["count"] == 1
        assert stages["block_read"]["p50_us"] <= stages["block_read"]["p99_us"]


class TestObservability:
    """/metrics exposition and the trace-carrying slow-query log."""

    @pytest.mark.parametrize("protocol", ["binary", "json"])
    def test_metrics_op_returns_prometheus_text(self, server, protocol):
        with StoreClient(server.host, server.port, protocol=protocol) as client:
            client.top_k(3)
            client.get((1, 2))
            text = client.metrics_text()
        assert "# TYPE ngramstore_requests_total counter" in text
        assert 'ngramstore_requests_total{op="top_k"}' in text
        assert "ngramstore_request_seconds_bucket" in text
        assert 'ngramstore_io_events{event="blocks_decoded"}' in text
        assert 'ngramstore_block_cache_events{event="hits"}' in text
        assert "ngramstore_active_connections" in text

    @pytest.mark.parametrize("protocol", ["binary", "json"])
    def test_slow_log_trace_id_matches_client(self, store_dir, tmp_path, protocol):
        """The acceptance path: a slow query's log line carries the same
        trace ID the client minted, over both wire protocols."""
        log_path = tmp_path / "logs" / f"slow-{protocol}.jsonl"
        config = ServerConfig(
            port=0,
            cache_blocks=8,
            slow_query_ms=0.0,  # log everything
            slow_query_log=str(log_path),
        )
        with NGramStoreServer(store_dir, config=config) as running:
            with StoreClient(
                running.host, running.port, protocol=protocol
            ) as client:
                client.get((1, 2))
                trace_id = client.last_trace_id
        assert trace_id
        entries = [
            json.loads(line)
            for line in log_path.read_text(encoding="utf-8").splitlines()
        ]
        gets = [entry for entry in entries if entry["op"] == "get"]
        assert gets, f"no get entries in slow log: {entries}"
        entry = gets[-1]
        assert entry["trace_id"] == trace_id
        assert entry["ok"] is True
        assert entry["key_count"] == 1
        assert entry["duration_ms"] >= 0
        assert "route" in entry["stages_ms"]
        assert "blocks_decoded" in entry["io"]
        assert "cache_hits" in entry["io"]

    def test_forwarded_trace_id_is_preserved(self, server):
        """A request that already carries a trace keeps it end to end —
        what makes a gateway's log line joinable with the shard's."""
        with StoreClient(server.host, server.port) as client:
            response = client._call(
                {"op": "ping", "trace": {"id": "feedfacefeedface"}}
            )
            assert response["ok"]
            assert client.last_trace_id == "feedfacefeedface"

    def test_server_stats_includes_stage_timings(self, server):
        with StoreClient(server.host, server.port) as client:
            client.get((1, 2))
            stats = client.server_stats()
        assert "route" in stats["stages"]
        assert stats["stages"]["route"]["count"] >= 1

    def test_slow_log_threshold_filters(self, store_dir, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        config = ServerConfig(
            port=0,
            slow_query_ms=60_000.0,  # nothing in this test is that slow
            slow_query_log=str(log_path),
        )
        with NGramStoreServer(store_dir, config=config) as running:
            with StoreClient(running.host, running.port) as client:
                client.get((1, 2))
                client.top_k(3)
        assert not log_path.exists() or log_path.read_text() == ""

"""Tests for the HTTP front-end: GET routes, POST /query, errors, CLI."""

import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import ServerConfig, StoreConfig
from repro.exceptions import StoreConnectionError, StoreError
from repro.ngramstore import (
    HttpStoreClient,
    NGramStore,
    NGramStoreHTTPServer,
    build_store,
)


def make_records(count=300, seed=17, max_term=30, max_len=3):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, max_term) for _ in range(rng.randint(1, max_len))))
    return [(key, rng.randint(1, 300)) for key in sorted(keys)]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("http-store") / "store")
    build_store(
        make_records(),
        directory,
        store=StoreConfig(num_partitions=3, records_per_block=32),
        metadata={"origin": "test_store_http"},
    )
    return directory


@pytest.fixture(scope="module")
def server(store_dir):
    with NGramStoreHTTPServer(
        store_dir, config=ServerConfig(port=0, cache_blocks=16, protocol="http")
    ) as running:
        yield running


@pytest.fixture(scope="module")
def base_url(server):
    return f"http://{server.host}:{server.port}"


@pytest.fixture()
def expected():
    return dict(make_records())


def http_get(url):
    """(status, parsed JSON body) for a GET, errors included."""
    try:
        with urllib.request.urlopen(url) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestGetRoutes:
    def test_ping(self, base_url):
        status, body = http_get(f"{base_url}/ping")
        assert status == 200
        assert body == {"ok": True, "pong": True}

    def test_get_by_key(self, base_url, expected):
        key = sorted(expected)[11]
        status, body = http_get(f"{base_url}/get?key={','.join(map(str, key))}")
        assert status == 200
        assert body["found"] is True
        assert body["value"] == expected[key]
        status, body = http_get(f"{base_url}/get?key=31000")
        assert status == 200
        assert body["found"] is False

    def test_prefix_with_limit(self, base_url, store_dir, expected):
        term = sorted(expected)[0][0]
        with NGramStore.open(store_dir) as store:
            reference = [[list(key), value] for key, value in store.prefix((term,))]
        status, body = http_get(f"{base_url}/prefix?key={term}")
        assert status == 200
        assert body["records"] == reference
        status, body = http_get(f"{base_url}/prefix?key={term}&limit=2")
        assert body["records"] == reference[:2]

    def test_top_k(self, base_url, store_dir):
        with NGramStore.open(store_dir) as store:
            reference = [[list(key), value] for key, value in store.top_k(5)]
        status, body = http_get(f"{base_url}/top_k?k=5&order=frequency")
        assert status == 200
        assert body["records"] == reference

    def test_stats_and_server_stats(self, base_url, expected):
        status, body = http_get(f"{base_url}/stats")
        assert status == 200
        assert body["num_records"] == len(expected)
        assert body["metadata"]["origin"] == "test_store_http"
        status, body = http_get(f"{base_url}/server_stats")
        assert status == 200
        assert body["requests"] >= 1
        assert "cache" in body

    def test_unknown_route_404(self, base_url):
        status, body = http_get(f"{base_url}/frobnicate")
        assert status == 404
        assert body["ok"] is False
        assert "/get" in body["error"]

    def test_bad_parameters_400(self, base_url):
        status, body = http_get(f"{base_url}/get?key=not-an-id")
        assert status == 400
        assert "terms=" in body["error"]
        status, body = http_get(f"{base_url}/top_k?k=many")
        assert status == 400
        status, body = http_get(f"{base_url}/prefix?key=1&limit=-3")
        assert status == 400


class TestPostQuery:
    def post(self, base_url, payload):
        request = urllib.request.Request(
            f"{base_url}/query",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_same_schema_as_socket_protocol(self, base_url, expected):
        key = sorted(expected)[7]
        status, body = self.post(base_url, {"op": "get", "key": list(key)})
        assert (status, body["value"]) == (200, expected[key])
        status, body = self.post(
            base_url, {"op": "multi_get", "keys": [list(key), [31000]]}
        )
        assert body["found"] == [True, False]
        assert body["values"] == [expected[key], None]

    def test_legacy_field_spellings_are_ordinary_errors(self, base_url, expected):
        key = sorted(expected)[7]
        status, body = self.post(base_url, {"op": "get", "ngram": list(key)})
        assert status == 400
        assert "key must be a JSON array" in body["error"]

    def test_errors_are_400_not_dead_connections(self, base_url):
        status, body = self.post(base_url, {"op": "frobnicate"})
        assert status == 400
        assert body["ok"] is False
        status, body = self.post(base_url, {"op": "get", "key": "not-a-list"})
        assert status == 400
        status, body = http_get(f"{base_url}/ping")  # server still alive
        assert status == 200

    def test_non_object_body_rejected(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/query", data=b"[1, 2, 3]", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestHttpStoreClient:
    def test_full_surface(self, base_url, store_dir, expected):
        with NGramStore.open(store_dir) as direct, HttpStoreClient(base_url) as client:
            for key in sorted(expected)[::31]:
                assert client.get(key) == direct.get(key)
            term = sorted(expected)[0][0]
            assert client.prefix((term,)) == list(direct.prefix((term,)))
            assert client.top_k(6) == direct.top_k(6)
            assert client.stats() == direct.stats()
            assert client.ping()

    def test_application_error_is_store_error(self, base_url):
        client = HttpStoreClient(base_url)
        with pytest.raises(StoreError, match="unknown op"):
            client._call({"op": "frobnicate"})

    def test_dead_endpoint_is_connection_error(self):
        client = HttpStoreClient("http://127.0.0.1:1", max_retries=1, backoff=0.01)
        with pytest.raises(StoreConnectionError, match="cannot reach"):
            client.ping()

    def test_thread_safe_sharing(self, base_url, store_dir, expected):
        """One HTTP client instance is safe to share across threads."""
        with NGramStore.open(store_dir) as direct:
            reference = direct.top_k(5)
        client = HttpStoreClient(base_url)
        keys = sorted(expected)

        def hammer(seed):
            rng = random.Random(seed)
            for _ in range(20):
                key = rng.choice(keys)
                assert client.get(key) == expected[key]
            assert client.top_k(5) == reference
            return True

        with ThreadPoolExecutor(max_workers=6) as pool:
            assert all(pool.map(hammer, range(10)))
        # The pool never grows past the caller concurrency level.
        assert 1 <= client.connections_opened <= 6
        client.close()

    def test_keep_alive_reuses_one_connection(self, base_url, expected):
        """Sequential calls ride one persistent connection, not one each."""
        with HttpStoreClient(base_url) as client:
            keys = sorted(expected)[::19]
            for key in keys:
                assert client.get(key) == expected[key]
            assert client.top_k(5)
            assert client.ping()
            assert client.connections_opened == 1

    def test_connections_counted_per_connection_not_per_request(self, store_dir, expected):
        """``connections_accepted`` counts sockets, like the socket server does."""
        config = ServerConfig(port=0, protocol="http")
        with NGramStoreHTTPServer(store_dir, config=config) as running:
            url = f"http://{running.host}:{running.port}"
            with HttpStoreClient(url) as first:
                for key in sorted(expected)[:7]:
                    assert first.get(key) == expected[key]
                assert first.connections_opened == 1
                assert first.server_stats()["connections_accepted"] == 1
                with HttpStoreClient(url) as second:
                    assert second.server_stats()["connections_accepted"] == 2

    def test_stale_pooled_connection_retried_without_burning_budget(
        self, base_url, expected
    ):
        """A keep-alive socket the server idled out is a free retry."""
        client = HttpStoreClient(base_url, max_retries=0)  # zero retry budget
        try:
            assert client.ping()
            assert client.connections_opened == 1
            (pooled,) = client._idle
            pooled.sock.close()  # sever it under the client: stale keep-alive
            key = sorted(expected)[0]
            assert client.get(key) == expected[key]  # fresh dial, no error
            assert client.connections_opened == 2
        finally:
            client.close()

    def test_application_errors_keep_the_connection(self, base_url):
        """4xx answers are data, not transport failures: no re-dial."""
        with HttpStoreClient(base_url) as client:
            assert client.ping()
            for _ in range(3):
                with pytest.raises(StoreError, match="unknown op"):
                    client._call({"op": "frobnicate"})
            assert client.ping()
            assert client.connections_opened == 1

    def test_close_drains_the_pool(self, base_url):
        client = HttpStoreClient(base_url)
        assert client.ping()
        client.close()
        assert client._idle == []
        with pytest.raises(StoreError, match="closed"):
            client.ping()
        client.close()  # idempotent

    def test_invalid_url_rejected(self):
        with pytest.raises(StoreError, match="http"):
            HttpStoreClient("not-a-url")
        with pytest.raises(StoreError, match="http"):
            HttpStoreClient("ftp://example.com/store")


class TestServeHTTPCLI:
    def test_serve_http_subprocess(self, store_dir, tmp_path, expected):
        """`repro serve --http` end to end: ready-file, queries, shutdown."""
        ready = tmp_path / "ready"
        metrics_file = tmp_path / "metrics.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                store_dir,
                "--http",
                "--port",
                "0",
                "--ready-file",
                str(ready),
                "--metrics-file",
                str(metrics_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 30
            while not ready.exists() and time.time() < deadline:
                assert process.poll() is None, process.communicate()[1]
                time.sleep(0.05)
            host, port = ready.read_text().split()
            base = f"http://{host}:{port}"
            status, body = http_get(f"{base}/ping")
            assert (status, body["pong"]) == (200, True)
            key = sorted(expected)[3]
            status, body = http_get(f"{base}/get?key={','.join(map(str, key))}")
            assert body["value"] == expected[key]
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "protocol=http" in stdout
        metrics = json.loads(metrics_file.read_text())
        assert metrics["operations"]["get"]["count"] >= 1


class TestHttpObservability:
    """GET /metrics exposition, tracing, and the gateway router series."""

    def test_metrics_endpoint_returns_prometheus_text(self, base_url):
        with urllib.request.urlopen(f"{base_url}/metrics") as reply:
            assert reply.status == 200
            assert reply.headers["Content-Type"].startswith("text/plain")
            text = reply.read().decode("utf-8")
        assert text.endswith("\n")
        assert "# TYPE ngramstore_requests_total counter" in text
        assert "ngramstore_request_seconds_bucket" in text
        assert 'ngramstore_block_cache_events{event="hits"}' in text
        assert 'ngramstore_io_events{event="blocks_decoded"}' in text
        # Exposition lines are "name{labels} value" or comments — no blanks.
        for line in text.rstrip("\n").splitlines():
            assert line.startswith("#") or " " in line

    def test_metrics_scrape_is_counted(self, base_url):
        with urllib.request.urlopen(f"{base_url}/metrics") as reply:
            reply.read()
        with urllib.request.urlopen(f"{base_url}/metrics") as reply:
            text = reply.read().decode("utf-8")
        scrapes = [
            line
            for line in text.splitlines()
            if line.startswith('ngramstore_requests_total{op="metrics"}')
        ]
        assert scrapes and float(scrapes[0].rsplit(" ", 1)[1]) >= 1

    def test_metrics_op_over_post_query(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/query",
            data=json.dumps({"op": "metrics"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as reply:
            body = json.loads(reply.read())
        assert body["ok"] is True
        assert "ngramstore_requests_total" in body["text"]

    def test_client_metrics_text_and_trace_id(self, base_url):
        with HttpStoreClient(base_url) as client:
            client.get((1, 2))
            assert client.last_trace_id
            assert len(client.last_trace_id) == 16
            text = client.metrics_text()
        assert "ngramstore_requests_total" in text

    def test_slow_log_trace_id_matches_http_client(self, store_dir, tmp_path):
        log_path = tmp_path / "slow-http.jsonl"
        config = ServerConfig(
            port=0,
            protocol="http",
            slow_query_ms=0.0,
            slow_query_log=str(log_path),
        )
        with NGramStoreHTTPServer(store_dir, config=config) as running:
            with HttpStoreClient(f"http://{running.host}:{running.port}") as client:
                client.get((1, 2))
                trace_id = client.last_trace_id
        entries = [
            json.loads(line)
            for line in log_path.read_text(encoding="utf-8").splitlines()
        ]
        gets = [entry for entry in entries if entry["op"] == "get"]
        assert gets and gets[-1]["trace_id"] == trace_id
        assert "parse" in gets[-1]["stages_ms"]
        assert "blocks_decoded" in gets[-1]["io"]

    def test_gateway_exposes_router_series(self, store_dir):
        """A server fronting a ShardRouter merges the router's registry
        into its /metrics — fan-out series are scrapeable at the edge."""
        from repro.ngramstore.router import ShardRouter, ShardView

        stores = [NGramStore.open(store_dir) for _ in range(2)]
        router = ShardRouter(
            [ShardView(store, index, 2) for index, store in enumerate(stores)]
        )
        config = ServerConfig(port=0, protocol="http")
        with NGramStoreHTTPServer(router, config=config) as gateway:
            base = f"http://{gateway.host}:{gateway.port}"
            status, body = http_get(f"{base}/top_k?k=5")
            assert status == 200 and len(body["records"]) == 5
            with urllib.request.urlopen(f"{base}/metrics") as reply:
                text = reply.read().decode("utf-8")
        assert 'ngramstore_router_requests_total{op="top_k"}' in text
        assert "ngramstore_router_fanout_seconds_bucket" in text
        assert "ngramstore_router_shards 2" in text

"""End-to-end smoke driver for the store serving tier (used by CI).

Starts ``repro serve`` as real subprocesses over an existing store, fires
concurrent :class:`~repro.ngramstore.api.StoreAPI` client workloads at
the deployment, and asserts every response is byte-identical to a direct
:class:`~repro.ngramstore.NGramStore` read of the same store — plus that
the rendered top-k matches the offline ``repro query --ids --top-k``
output line for line.  Client-side latencies (and each server's own
metrics snapshot) are written as a JSON report so CI can upload
percentiles as an artifact.

``--topology`` picks the deployment shape:

* ``single`` (default) — one server, plain :class:`StoreClient`s;
* ``replicas`` — ``--replicas`` identical servers behind a
  :class:`~repro.ngramstore.router.ReplicaPool` per client thread, plus a
  live failover check (one replica is killed mid-run and every read must
  still be answered);
* ``sharded`` — ``--shards`` range-sharded servers (each serving one
  slice of the store's partitions) behind a
  :class:`~repro.ngramstore.router.ShardRouter` per client thread, so
  gets route to the owning shard and top-k is merged across shards.

With ``--baseline DIR --scale N`` it additionally asserts every sampled
value equals ``N x`` the baseline store's — the check CI runs after
merging ``N`` identical per-shard stores.

Exit status is non-zero on any mismatch, so the CI step fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py --store work/store \
        --clients 8 --requests 50 --report reports/serve-latency.json \
        --topology sharded --shards 3
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.ngramstore import NGramStore, ReplicaPool, ShardRouter, StoreClient
from repro.ngramstore.server import percentile


def start_server(
    store_dir: str,
    cache_blocks: int,
    max_clients: int,
    timeout: float = 60.0,
    extra_args=(),
):
    """Launch ``repro serve`` and wait for its ready-file; returns (proc, host, port)."""
    ready_dir = tempfile.mkdtemp(prefix="serve-smoke-")
    ready_path = os.path.join(ready_dir, "ready.txt")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
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
            str(cache_blocks),
            "--max-clients",
            str(max_clients),
            "--ready-file",
            ready_path,
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.time() + timeout
    while not os.path.exists(ready_path):
        if process.poll() is not None:
            raise SystemExit(
                f"server exited early ({process.returncode}): {process.stderr.read()}"
            )
        if time.time() > deadline:
            process.kill()
            raise SystemExit("server did not become ready in time")
        time.sleep(0.05)
    with open(ready_path, encoding="utf-8") as handle:
        host, port = handle.read().split()
    return process, host, int(port)


def render_top_k(records):
    """Render records exactly like ``repro query --ids --top-k`` prints them."""
    lines = []
    for ngram, value in records:
        rendered = f"{value:10d}" if isinstance(value, int) else str(value)
        lines.append(f"{rendered}  {' '.join(str(term) for term in ngram)}")
    return lines


def client_workload(client_factory, seed, keys, expected, reference_top, requests):
    """One client's worth of queries; returns per-op latency samples.

    ``client_factory`` builds a fresh StoreAPI client per thread (socket
    clients hold one connection each, so threads must not share them).
    """
    rng = random.Random(seed)
    latencies = {"get": [], "multi_get": [], "prefix": [], "top_k": []}
    with client_factory() as client:
        for _ in range(requests):
            key = rng.choice(keys)
            started = time.perf_counter()
            value = client.get(key)
            latencies["get"].append(time.perf_counter() - started)
            assert value == expected[key], f"get({key!r}) = {value!r} != {expected[key]!r}"
        assert client.get((10**9,)) is None

        # The batched ops: one round-trip each, answers identical to the
        # equivalent single-key calls.
        batch = [rng.choice(keys) for _ in range(32)] + [(10**9,)]
        started = time.perf_counter()
        values = client.multi_get(batch)
        latencies["multi_get"].append(time.perf_counter() - started)
        assert values == [expected.get(key) for key in batch], "multi_get diverged"

        term = rng.choice(keys)[0]
        started = time.perf_counter()
        prefix_result = client.prefix((term,))
        latencies["prefix"].append(time.perf_counter() - started)
        reference_prefix = [
            record for record in sorted(expected.items()) if record[0][0] == term
        ]
        assert prefix_result == reference_prefix, f"prefix(({term},)) diverged"
        assert client.multi_prefix([(term,), (10**9,)]) == [
            reference_prefix,
            [],
        ], "multi_prefix diverged"

        started = time.perf_counter()
        top = client.top_k(10)
        latencies["top_k"].append(time.perf_counter() - started)
        assert top == reference_top, "top_k diverged from direct store read"
    return latencies


def build_topology(args):
    """Start the deployment; returns (processes, endpoints, client_factory).

    ``client_factory`` builds a per-thread StoreAPI client over the
    running servers: a plain StoreClient, a ReplicaPool of StoreClients,
    or a ShardRouter of per-shard StoreClients.
    """
    protocol = args.protocol

    if args.topology == "single":
        process, host, port = start_server(args.store, args.cache_blocks, args.max_clients)
        return (
            [process],
            [(host, port)],
            lambda: StoreClient(host, port, protocol=protocol),
        )

    if args.topology == "replicas":
        servers = [
            start_server(args.store, args.cache_blocks, args.max_clients)
            for _ in range(args.replicas)
        ]
        endpoints = [(host, port) for _, host, port in servers]
        return (
            [process for process, _, _ in servers],
            endpoints,
            lambda: ReplicaPool(
                [StoreClient(host, port, protocol=protocol) for host, port in endpoints]
            ),
        )

    servers = [
        start_server(
            args.store,
            args.cache_blocks,
            args.max_clients,
            extra_args=["--num-shards", str(args.shards), "--shard-index", str(index)],
        )
        for index in range(args.shards)
    ]
    endpoints = [(host, port) for _, host, port in servers]
    return (
        [process for process, _, _ in servers],
        endpoints,
        lambda: ShardRouter(
            [StoreClient(host, port, protocol=protocol) for host, port in endpoints]
        ),
    )


def cross_protocol_identity_check(endpoint, keys, expected, reference_top, complete):
    """Binary and JSON clients of one server answer byte-identically.

    ``complete`` says the endpoint serves the whole store (not one shard),
    so answers are additionally checked against the direct reads.
    """
    host, port = endpoint
    sample = keys[:: max(1, len(keys) // 40)]
    prefixes = sorted({key[:1] for key in sample})[:5]
    answers = {}
    for protocol in ("binary", "json"):
        with StoreClient(host, port, protocol=protocol) as client:
            answers[protocol] = (
                [client.get(key) for key in sample],
                client.multi_get(sample + [(10**9,)]),
                client.multi_prefix(prefixes),
                client.top_k(10),
                client.stats(),
            )
    assert answers["binary"] == answers["json"], (
        "binary and JSON protocol answers diverged"
    )
    if complete:
        gets, multi, _, top, _ = answers["binary"]
        assert gets == [expected[key] for key in sample]
        assert multi == [expected[key] for key in sample] + [None]
        assert top == reference_top
    print(
        f"cross-protocol identity OK: {len(sample)} gets + batched ops "
        "byte-identical over binary and JSON"
    )


def replica_failover_check(processes, client_factory, keys, expected):
    """Kill one replica under a live pool; every read must still answer."""
    with client_factory() as pool:
        sample = keys[:: max(1, len(keys) // 50)]
        assert pool.get(sample[0]) == expected[sample[0]]
        victim = processes[0]
        victim.send_signal(signal.SIGTERM)
        victim.communicate(timeout=60)
        for key in sample:
            value = pool.get(key)
            assert value == expected[key], (
                f"get({key!r}) after replica loss: {value!r} != {expected[key]!r}"
            )
    print(f"replica failover OK: {len(sample)} reads answered after killing one replica")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--store", required=True, help="store directory to serve")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=50, help="point gets per client")
    parser.add_argument("--cache-blocks", type=int, default=128)
    parser.add_argument("--max-clients", type=int, default=4)
    parser.add_argument("--report", default=None, help="latency-percentile JSON path")
    parser.add_argument(
        "--topology",
        choices=("single", "replicas", "sharded"),
        default="single",
        help="deployment shape to smoke (default: one server)",
    )
    parser.add_argument(
        "--protocol",
        choices=("binary", "json"),
        default="binary",
        help="wire framing the workload clients use (default: binary)",
    )
    parser.add_argument("--replicas", type=int, default=2, help="servers for --topology replicas")
    parser.add_argument("--shards", type=int, default=3, help="servers for --topology sharded")
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline store directory for the merged-store scale check",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=2,
        help="expected value multiple of --baseline (e.g. 2 after a self-merge)",
    )
    args = parser.parse_args(argv)

    with NGramStore.open(args.store) as direct:
        expected = dict(direct.items())
        reference_top = direct.top_k(10)
    keys = sorted(expected)
    if not keys:
        raise SystemExit(f"store {args.store} is empty; nothing to smoke")

    if args.baseline is not None:
        with NGramStore.open(args.baseline) as baseline:
            sample = sorted(baseline.items())[:: max(1, len(baseline) // 200)]
        for key, value in sample:
            assert expected.get(key) == args.scale * value, (
                f"merged store value for {key!r}: {expected.get(key)!r} "
                f"!= {args.scale} x {value!r}"
            )
        print(f"merged-store scale check OK ({len(sample)} keys, x{args.scale})")

    processes, endpoints, client_factory = build_topology(args)
    exit_results = []
    try:
        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            results = list(
                pool.map(
                    lambda seed: client_workload(
                        client_factory, seed, keys, expected, reference_top, args.requests
                    ),
                    range(args.clients),
                )
            )

        # Byte-identity against the offline CLI rendering of the same query.
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        offline = subprocess.run(
            [sys.executable, "-m", "repro", "query", args.store, "--top-k", "10", "--ids"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        with client_factory() as client:
            served_lines = render_top_k(client.top_k(10))
        # rstrip, not strip: the first line's value padding is leading
        # whitespace and part of the byte-identity contract.
        offline_lines = offline.stdout.rstrip("\n").splitlines()
        assert served_lines == offline_lines, (
            "served top-k rendering diverged from offline `repro query`:\n"
            f"served : {served_lines}\noffline: {offline_lines}"
        )
        print("served responses byte-identical to offline query output")

        # Every deployment shape is fronted by socket servers, so the
        # binary/JSON identity check runs against the first endpoint.
        cross_protocol_identity_check(
            endpoints[0],
            keys,
            expected,
            reference_top,
            complete=args.topology != "sharded",
        )

        # Per-server metrics, probed while every server is still up (the
        # replica failover check below deliberately kills one).
        server_reports = []
        for host, port in endpoints:
            with StoreClient(host, port) as probe:
                server_reports.append(
                    {"host": host, "port": port, "stats": probe.server_stats()}
                )

        if args.topology == "replicas":
            replica_failover_check(processes, client_factory, keys, expected)
    finally:
        for process in processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in processes:
            try:
                _, stderr = process.communicate(timeout=60)
            except ValueError:  # streams already drained (the failover victim)
                process.wait(timeout=60)
                stderr = ""
            exit_results.append((process.returncode, stderr))
    for returncode, stderr in exit_results:
        if returncode != 0:
            raise SystemExit(f"server exited {returncode}: {stderr}")

    server_stats = server_reports[0]["stats"]
    report = {
        "store": args.store,
        "topology": args.topology,
        "protocol": args.protocol,
        "clients": args.clients,
        "requests_per_client": args.requests,
        "operations": {},
        "server": server_stats,
        "servers": server_reports,
    }
    for operation in ("get", "multi_get", "prefix", "top_k"):
        samples = sorted(
            sample for result in results for sample in result[operation]
        )
        report["operations"][operation] = {
            "count": len(samples),
            "p50_us": round(percentile(samples, 0.50) * 1e6, 1),
            "p90_us": round(percentile(samples, 0.90) * 1e6, 1),
            "p99_us": round(percentile(samples, 0.99) * 1e6, 1),
            "max_us": round(samples[-1] * 1e6, 1),
        }
    print(json.dumps(report["operations"], indent=2, sort_keys=True))
    if args.report:
        parent = os.path.dirname(args.report)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote serve-smoke latency report to {args.report}")
    print(
        f"serve smoke OK ({args.topology}, {len(endpoints)} server(s)): "
        f"{args.clients} clients x {args.requests} gets, "
        f"cache hit rate {server_stats['cache']['hit_rate']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

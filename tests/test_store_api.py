"""StoreAPI conformance suite: every implementation answers identically.

One shared fixture store (with a persisted vocabulary), seven
implementations of :class:`repro.ngramstore.api.StoreAPI` — the local
:class:`NGramStore`, a three-generation LSM :class:`GenerationView`, three
:class:`ShardView` slices concatenated in-process, the socket
:class:`StoreClient`, a two-server :class:`ReplicaPool`, a three-shard
:class:`ShardRouter`, and the :class:`HttpStoreClient` — and one
parametrized set of assertions comparing each against reference answers
computed directly from the local store.  The three local ones implement
only the kernel, so they hold the operations derived in the base class to
the same answers; a topology that drifts from the local semantics (a shard
router mis-merging top-k, a transport mangling a value) fails here by name.

Also home to the ``repro query --server/--url`` end-to-end tests: the CLI
must render byte-identical output whether it opens the store directory or
talks to a remote server.
"""

import json
import os
import random
import socket
import subprocess
import sys
import urllib.error
import urllib.parse
import urllib.request
from itertools import chain
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import ServerConfig, StoreConfig
from repro.corpus.vocabulary import Vocabulary
from repro.exceptions import StoreError
from repro.ngramstore import (
    BlockCache,
    GenerationView,
    HttpStoreClient,
    LSMStore,
    NGramRecord,
    NGramStore,
    NGramStoreHTTPServer,
    NGramStoreServer,
    QueryEngine,
    ReplicaPool,
    ShardRouter,
    ShardView,
    StoreAPI,
    StoreClient,
    build_store,
    open_store_auto,
)
from repro.ngramstore.api import MAX_BATCH_KEYS, OPERATIONS, OPS, RemoteStore, render_op_reference
from repro.ngramstore.http import GET_ROUTES, _request_from_query

MAX_TERM = 50

IMPLEMENTATIONS = ("local", "lsm", "shard_views", "socket", "replicas", "sharded", "http")

_MISSING = object()


def make_records(count=600, seed=13, max_term=MAX_TERM, max_len=4):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, max_term) for _ in range(rng.randint(1, max_len))))
    return [(key, rng.randint(1, 400)) for key in sorted(keys)]


def term_for(term_id):
    return f"w{term_id:02d}"


def _test_vocabulary():
    # Descending frequency with lexicographic tie-break assigns w00 -> id 0,
    # w01 -> id 1, ... — a bijection the term-op assertions rely on.
    return Vocabulary.from_term_frequencies(
        {term_for(index): 1000 - index for index in range(MAX_TERM + 1)}
    )


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("api-store") / "store")
    build_store(
        make_records(),
        directory,
        store=StoreConfig(num_partitions=5, records_per_block=32),
        vocabulary=_test_vocabulary(),
        metadata={"origin": "test_store_api"},
    )
    return directory


@pytest.fixture(scope="module")
def lsm_dir(tmp_path_factory):
    """The fixture records as three generations with overlapping keys.

    Every count of 3 or more is split over all three generations (smaller
    ones live in one), so each answer is a sum the view has to get right.
    """
    directory = str(tmp_path_factory.mktemp("api-lsm") / "lsm")
    lsm = LSMStore.init(
        directory, store=StoreConfig(num_partitions=3, records_per_block=32)
    )
    generations = [[], [], []]
    for index, (key, value) in enumerate(make_records()):
        if value < 3:
            generations[index % 3].append((key, value))
            continue
        shares = (value // 3, value // 3, value - 2 * (value // 3))
        for generation, share in zip(generations, shares):
            generation.append((key, share))
    for records in generations:
        lsm.ingest_records(records, vocabulary=_test_vocabulary())
    return directory


class Concatenation(StoreAPI):
    """Ordered, disjoint parts read as one store — the kernel and nothing else."""

    def __init__(self, parts):
        self.parts = parts

    def get(self, ngram, default=None):
        for part in self.parts:
            value = part.get(ngram, _MISSING)
            if value is not _MISSING:
                return value
        return default

    def scan(self, start=None, stop=None):
        return chain.from_iterable(part.scan(start, stop) for part in self.parts)

    def top_k_into(self, accumulator):
        for part in self.parts:
            part.top_k_into(accumulator)

    def stats(self):
        per_part = [part.stats() for part in self.parts]
        return {
            **per_part[0],
            "num_records": sum(stats["num_records"] for stats in per_part),
            "num_partitions": sum(stats["num_partitions"] for stats in per_part),
        }

    @property
    def vocabulary(self):
        return self.parts[0].vocabulary

    def close(self):
        for part in self.parts:
            part.close()


@pytest.fixture(scope="module")
def extra_store_dir(tmp_path_factory):
    """The comparison store every server mounts: same vocabulary, partially
    overlapping records, so ``compare`` sees all four found/missing shapes."""
    directory = str(tmp_path_factory.mktemp("api-extra") / "store")
    build_store(
        make_records(count=400, seed=29),
        directory,
        store=StoreConfig(num_partitions=3, records_per_block=32),
        vocabulary=_test_vocabulary(),
        metadata={"origin": "test_store_api_extra"},
    )
    return directory


@pytest.fixture(scope="module")
def reference(store_dir, extra_store_dir):
    """Ground truth computed once from the local store."""
    expected = dict(make_records())
    with NGramStore.open(store_dir) as store:
        first_terms = sorted({key[0] for key in expected})[:4]
        complete_prefixes = [(), (first_terms[0],)] + [
            key for key in sorted(expected) if len(key) == 2
        ][:3]
        with NGramStore.open(extra_store_dir) as extra:
            engine = QueryEngine(store, extra_store=extra)
            compare_keys = sorted(
                set(expected) | set(dict(make_records(count=400, seed=29)))
            )[::37] + [(MAX_TERM + 1000,)]
            compares = {
                key: engine.handle({"op": "compare", "key": list(key)})
                for key in compare_keys
            }
        return {
            "expected": expected,
            "top_frequency": store.top_k(12),
            "top_key": store.top_k(12, order="key"),
            "prefixes": {
                term: list(store.prefix((term,))) for term in first_terms
            },
            "stats": store.stats(),
            "top_terms": store.top_k_terms(8),
            "completions": {
                prefix: store.complete(prefix, 6) for prefix in complete_prefixes
            },
            "compares": compares,
        }


@pytest.fixture(scope="module")
def topology(store_dir, extra_store_dir):
    """All the servers the remote implementations talk to, started once."""
    servers = []

    def start(server):
        server.start()
        servers.append(server)
        return server

    socket_a = start(
        NGramStoreServer(
            store_dir,
            config=ServerConfig(port=0, cache_blocks=32, extra_store=extra_store_dir),
        )
    )
    socket_b = start(
        NGramStoreServer(
            store_dir,
            config=ServerConfig(port=0, cache_blocks=32, extra_store=extra_store_dir),
        )
    )
    shards = [
        start(
            NGramStoreServer(
                ShardView(NGramStore.open(store_dir, cache=BlockCache(16)), index, 3),
                config=ServerConfig(port=0, extra_store=extra_store_dir),
            )
        )
        for index in range(3)
    ]
    http = start(
        NGramStoreHTTPServer(
            store_dir,
            config=ServerConfig(port=0, protocol="http", extra_store=extra_store_dir),
        )
    )
    yield {
        "socket": (socket_a.host, socket_a.port),
        "replica": (socket_b.host, socket_b.port),
        "shards": [(server.host, server.port) for server in shards],
        "http_url": f"http://{http.host}:{http.port}",
    }
    for server in servers:
        server.close()


@pytest.fixture(params=IMPLEMENTATIONS)
def implementation(request):
    return request.param


@pytest.fixture()
def api(implementation, store_dir, lsm_dir, topology):
    name = implementation
    if name == "local":
        instance = NGramStore.open(store_dir)
    elif name == "lsm":
        instance = open_store_auto(lsm_dir)
        assert isinstance(instance, GenerationView) and len(instance.stores) == 3
    elif name == "shard_views":
        instance = Concatenation(
            [ShardView(NGramStore.open(store_dir), index, 3) for index in range(3)]
        )
    elif name == "socket":
        instance = StoreClient(*topology["socket"])
    elif name == "replicas":
        instance = ReplicaPool(
            [StoreClient(*topology["socket"]), StoreClient(*topology["replica"])]
        )
    elif name == "sharded":
        instance = ShardRouter(
            [StoreClient(host, port) for host, port in topology["shards"]]
        )
    else:
        instance = HttpStoreClient(topology["http_url"])
    with instance:
        yield instance


class TestConformance:
    """Identical answers from every implementation, by construction."""

    def test_get(self, api, reference):
        expected = reference["expected"]
        for key in sorted(expected)[::23]:
            assert api.get(key) == expected[key]
        assert api.get((MAX_TERM + 1000,)) is None
        assert api.get((MAX_TERM + 1000,), default=-7) == -7

    def test_multi_get(self, api, reference):
        expected = reference["expected"]
        keys = sorted(expected)[::41] + [(MAX_TERM + 1000,)]
        assert api.multi_get(keys) == [expected.get(key) for key in keys]
        assert api.multi_get([(MAX_TERM + 1000,)], default=0) == [0]

    def test_prefix(self, api, reference):
        for term, records in reference["prefixes"].items():
            assert list(api.prefix((term,))) == records
            assert list(api.prefix((term,), limit=3)) == records[:3]
        assert list(api.prefix((MAX_TERM + 1000,))) == []

    def test_multi_prefix(self, api, reference):
        prefixes = [(term,) for term in reference["prefixes"]]
        expected = [records for records in reference["prefixes"].values()]
        assert api.multi_prefix(prefixes) == expected
        assert api.multi_prefix(prefixes, limit=2) == [
            records[:2] for records in expected
        ]
        assert api.multi_prefix([]) == []
        assert api.multi_prefix([(MAX_TERM + 1000,)]) == [[]]

    def test_top_k_frequency_and_key_order(self, api, reference):
        assert api.top_k(12) == reference["top_frequency"]
        assert api.top_k(12, order="key") == reference["top_key"]

    def test_stats_core_fields(self, api, implementation, reference):
        stats = api.stats()
        fields = ("store_dir", "num_records", "codec", "has_vocabulary", "metadata")
        if implementation == "lsm":
            # Another directory, and a key is one record per generation holding it.
            fields = ("codec", "has_vocabulary")
            assert stats["num_records"] > reference["stats"]["num_records"]
        for field in fields:
            assert stats[field] == reference["stats"][field]
        assert len(api) == stats["num_records"]

    def test_ping(self, api):
        assert api.ping() is True

    def test_get_terms(self, api, reference):
        expected = reference["expected"]
        key = sorted(expected)[29]
        terms = [term_for(term_id) for term_id in key]
        assert api.get_terms(terms) == expected[key]
        assert api.get_terms(["not-a-term"]) is None
        assert api.get_terms(["not-a-term"], default=-1) == -1

    def test_multi_get_terms(self, api, reference):
        expected = reference["expected"]
        keys = sorted(expected)[::97]
        items = [[term_for(term_id) for term_id in key] for key in keys]
        items.insert(1, ["no-such-term"])
        answers = api.multi_get_terms(items)
        expected_answers = [expected[key] for key in keys]
        expected_answers.insert(1, None)
        assert answers == expected_answers

    def test_prefix_terms(self, api, reference):
        term, records = next(iter(reference["prefixes"].items()))
        rendered = [
            NGramRecord(tuple(term_for(term_id) for term_id in key), value)
            for key, value in records
        ]
        assert api.prefix_terms([term_for(term)]) == rendered
        assert api.prefix_terms([term_for(term)], limit=2) == rendered[:2]
        assert api.prefix_terms(["no-such-term"]) == []

    def test_top_k_terms(self, api, reference):
        assert api.top_k_terms(8) == reference["top_terms"]

    def test_records_are_tuple_compatible(self, api, reference):
        """The canonical record unpacks and compares like a plain tuple."""
        (record,) = api.top_k(1)
        ngram, value = record
        assert record == (ngram, value)
        assert isinstance(record, tuple)

    def test_complete(self, api, reference):
        for prefix, completions in reference["completions"].items():
            assert api.complete(prefix, 6) == completions
        assert api.complete((MAX_TERM + 1000,), 6) == []

    def test_complete_terms(self, api, reference):
        for prefix, completions in reference["completions"].items():
            terms = [term_for(term_id) for term_id in prefix]
            rendered = [
                (term_for(completion.token), completion.value)
                for completion in completions
            ]
            assert api.complete_terms(terms, 6) == rendered
        assert api.complete_terms(["no-such-term"], 6) == []

    def test_bad_arguments_are_store_errors(self, api, reference):
        """Every implementation refuses a bad k, order or limit the same way."""
        term = next(iter(reference["prefixes"]))
        calls = [lambda k=k: api.top_k(k) for k in (True, "3", 0)]
        calls += [lambda: api.top_k(3, order="bogus")]
        calls += [lambda k=k: api.complete((term,), k) for k in (True, "3", 0)]
        calls += [lambda limit=limit: api.prefix((term,), limit=limit) for limit in (True, False, -1, "3")]
        calls += [lambda: api.multi_prefix([(term,)], limit=True)]
        for call in calls:
            with pytest.raises(StoreError):
                list(call())

    def _comparer(self, api, extra_store_dir):
        """``compare``/``compare_terms`` callables for this implementation.

        Remote implementations carry the operations natively (the servers
        mount the extra store); the local store is compared through a
        :class:`QueryEngine` over both stores — the reference semantics the
        transports must match byte for byte.
        """
        if hasattr(api, "compare"):
            return api.compare, api.compare_terms, None
        extra = NGramStore.open(extra_store_dir)
        engine = QueryEngine(api, extra_store=extra)

        def compare(key):
            return engine.handle({"op": "compare", "key": list(key)})

        def compare_terms(terms):
            return engine.handle({"op": "compare", "terms": list(terms)})

        return compare, compare_terms, extra

    def test_compare(self, api, reference, extra_store_dir):
        compare, _, extra = self._comparer(api, extra_store_dir)
        try:
            for key, expected in reference["compares"].items():
                assert compare(key) == expected
        finally:
            if extra is not None:
                extra.close()

    def test_compare_terms(self, api, reference, extra_store_dir):
        _, compare_terms, extra = self._comparer(api, extra_store_dir)
        missing = {
            "found_a": False,
            "value_a": None,
            "found_b": False,
            "value_b": None,
        }
        try:
            for key, expected in list(reference["compares"].items())[:5]:
                terms = [term_for(term_id) for term_id in key]
                if all(term_id <= MAX_TERM for term_id in key):
                    assert compare_terms(terms) == expected
            assert compare_terms(["no-such-term"]) == missing
        finally:
            if extra is not None:
                extra.close()


#: Operations every local composition must inherit, not re-implement.
DERIVED_OPERATIONS = (
    "prefix",
    "top_k",
    "multi_get",
    "multi_prefix",
    "complete",
    "translate_terms",
    "render_ngrams",
    "get_terms",
    "multi_get_terms",
    "prefix_terms",
    "top_k_terms",
    "complete_terms",
)

_IMPORT_HTTP_WITHOUT_SERVER = """
import os, sys, types
# Stub the two package __init__ modules (they import every submodule), so
# only the imports http.py itself asks for are executed.
for name, path in (("repro", sys.argv[1]), ("repro.ngramstore", os.path.join(sys.argv[1], "ngramstore"))):
    package = types.ModuleType(name)
    package.__path__ = [path]
    sys.modules[name] = package
import repro.ngramstore.http
assert "repro.ngramstore.service" in sys.modules
assert "repro.ngramstore.server" not in sys.modules
"""


class TestArchitecture:
    """One definition per operation, one serving core under both transports."""

    @pytest.mark.parametrize("implementation", [NGramStore, GenerationView, ShardView])
    def test_local_implementations_are_kernel_only(self, implementation):
        redefined = [name for name in DERIVED_OPERATIONS if name in vars(implementation)]
        assert redefined == []
        for name in ("get", "scan", "stats", "close"):
            assert name in vars(implementation)

    def test_http_transport_does_not_import_the_socket_transport(self):
        import repro

        completed = subprocess.run(
            [sys.executable, "-c", _IMPORT_HTTP_WITHOUT_SERVER, os.path.dirname(repro.__file__)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


class TestTransportsShareOneExecute:
    """Both front-ends run ``StoreService.execute``: same answers, same counts."""

    def requests(self):
        """Every op table row's example request, then four bad ones."""
        bodies = [json.dumps(OPS[operation].request).encode() for operation in OPERATIONS]
        return bodies + [
            b"this is not json",
            b"[1, 2, 3]",
            json.dumps({"op": "frobnicate"}).encode(),
            json.dumps({"op": "get", "ngram": [3, 7]}).encode(),
        ]

    @staticmethod
    def comparable(response):
        """Drop what legitimately differs: timings, and who counts connections."""
        if "uptime_s" in response:  # server_stats
            return sorted(set(response) - {"active_connections"})
        if "text" in response:  # metrics
            return sorted(response)
        return response

    @staticmethod
    def operation_counts(stats):
        return {
            operation: (entry["count"], entry["errors"])
            for operation, entry in stats["operations"].items()
        }

    def test_identical_answers_and_operation_counts(self, store_dir, extra_store_dir):
        config = ServerConfig(port=0, extra_store=extra_store_dir)
        bodies = self.requests()
        with NGramStoreServer(store_dir, config=config) as socket_server:
            with socket.create_connection((socket_server.host, socket_server.port)) as raw:
                reader = raw.makefile("rb")
                socket_answers = []
                for body in bodies:
                    raw.sendall(body + b"\n")
                    socket_answers.append(json.loads(reader.readline()))
            socket_counts = self.operation_counts(socket_server.service.server_stats())
        with NGramStoreHTTPServer(store_dir, config=config) as http_server:
            url = f"http://{http_server.host}:{http_server.port}/query"
            http_answers = []
            for body in bodies:
                try:
                    with urllib.request.urlopen(
                        urllib.request.Request(url, data=body, method="POST")
                    ) as reply:
                        status, answer = reply.status, json.loads(reply.read())
                except urllib.error.HTTPError as error:
                    status, answer = error.code, json.loads(error.read())
                assert status == (200 if answer["ok"] else 400)
                http_answers.append(answer)
            http_counts = self.operation_counts(http_server.service.server_stats())
        assert [answer["ok"] for answer in socket_answers] == [True] * len(OPERATIONS) + [
            False
        ] * 4
        assert "key must be a JSON array" in socket_answers[-1]["error"]
        for operation, answer in zip(OPERATIONS, socket_answers):
            # The documented reply names fields every real answer carries.
            assert set(OPS[operation].reply) <= set(answer), operation
        assert [self.comparable(answer) for answer in http_answers] == [
            self.comparable(answer) for answer in socket_answers
        ]
        assert http_counts == socket_counts
        assert socket_counts["invalid"] == (3, 3)
        assert socket_counts["get"] == (2, 1)


class SpyStore(StoreAPI):
    """Records every batch the engine asks it to translate; knows no key."""

    def __init__(self):
        self.translated = []

    def translate_terms(self, items):
        self.translated.append(len(items))
        return [None] * len(items)

    def get(self, ngram, default=None):
        return default


class TestOpTable:
    """Each op is declared once, and every surface derived from it serves it."""

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_every_row_reaches_every_surface(self, operation, topology):
        op = OPS[operation]
        for method in op.methods:
            # Defined by the classes themselves, not inherited from StoreAPI.
            assert method in vars(RemoteStore) and method in vars(ReplicaPool)
        assert (operation in GET_ROUTES) == op.http
        if op.http:
            with urllib.request.urlopen(topology["http_url"] + op.route) as reply:
                assert reply.status == 200
                assert json.loads(reply.read())["ok"] is True

    @pytest.mark.parametrize("operation", GET_ROUTES)
    def test_get_route_reads_back_the_example(self, operation):
        op = OPS[operation]
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(op.route).query)
        assert _request_from_query(operation, query) == op.request

    def test_readme_op_reference_is_rendered_from_the_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("<!-- op-reference:start", 1)[1].split("-->", 1)[1]
        block = block.split("<!-- op-reference:end -->", 1)[0]
        assert block.strip("\n") == render_op_reference()

    def test_over_cap_terms_batch_is_refused_before_translation(self):
        spy = SpyStore()
        engine = QueryEngine(spy)
        with pytest.raises(StoreError, match="must be <="):
            engine.handle({"op": "multi_get", "terms": [["w01"]] * (MAX_BATCH_KEYS + 1)})
        assert spy.translated == []
        answer = engine.handle({"op": "multi_get", "terms": [["w01"], ["w02"]]})
        assert answer == {"found": [False, False], "values": [None, None]}
        assert spy.translated == [2]


class TestQueryCLIRemote:
    """`repro query --server/--url` renders exactly like the direct store."""

    def _output(self, capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["--top-k", "6"],
            ["--top-k", "6", "--order", "key"],
            ["--get", "w03 w07"],
            ["--prefix", "w03", "--limit", "5"],
            ["--top-k", "4", "--ids"],
            ["--stats"],
        ],
    )
    def test_remote_matches_direct(self, capsys, store_dir, topology, argv_tail):
        direct_code, direct_out = self._output(capsys, ["query", store_dir] + argv_tail)
        host, port = topology["socket"]
        socket_code, socket_out = self._output(
            capsys, ["query", "--server", f"{host}:{port}"] + argv_tail
        )
        http_code, http_out = self._output(
            capsys, ["query", "--url", topology["http_url"]] + argv_tail
        )
        assert socket_code == direct_code
        assert http_code == direct_code
        assert socket_out == direct_out
        assert http_out == direct_out

    def test_not_found_exit_code_matches(self, capsys, store_dir, topology):
        direct_code, direct_out = self._output(
            capsys, ["query", store_dir, "--get", "no-such-term"]
        )
        host, port = topology["socket"]
        remote_code, remote_out = self._output(
            capsys, ["query", "--server", f"{host}:{port}", "--get", "no-such-term"]
        )
        assert direct_code == remote_code == 1
        assert direct_out == remote_out

    def test_source_validation(self, capsys, store_dir, topology):
        host, port = topology["socket"]
        assert main(["query", store_dir, "--server", f"{host}:{port}", "--top-k", "3"]) == 2
        assert main(["query", "--top-k", "3"]) == 2
        assert main(["query", "--server", "not-a-hostport", "--top-k", "3"]) == 2
        capsys.readouterr()

    def test_dead_server_is_a_clean_error(self, capsys, store_dir):
        assert main(["query", "--server", "127.0.0.1:1", "--get", "w00"]) == 2
        error = capsys.readouterr().err
        assert "error:" in error

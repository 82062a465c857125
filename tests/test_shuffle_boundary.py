"""Guards on the per-record shuffle boundary: one measurement, pinned counters.

A fixed literal corpus is counted with every method; the byte and group
counters are pinned to the values measured before the closed-form size path
and the packed hash existed, and the number of ``record_size`` calls is
bounded by the number of records that cross a boundary.
"""

import pytest

from repro.algorithms import make_counter
from repro.config import ExecutionConfig, NGramJobConfig
from repro.corpus.collection import DocumentCollection
from repro.mapreduce import context, dataset, runner, shuffle
from repro.mapreduce import counters as names
from repro.mapreduce.serialization import record_size


def fixed_corpus():
    """24 documents of 30 tokens over 9 terms, from a literal LCG."""
    state = 12345
    documents = []
    for _ in range(24):
        tokens = []
        for _ in range(30):
            state = (state * 1103515245 + 12345) % 2**31
            tokens.append(f"t{(state >> 16) % 9}")
        documents.append(tokens)
    return DocumentCollection.from_token_lists(documents).encode()


def count(method, spill_threshold_bytes=None):
    counter = make_counter(
        method,
        NGramJobConfig(min_frequency=3, max_length=4),
        execution=ExecutionConfig(runner="local", spill_threshold_bytes=spill_threshold_bytes),
    )
    return counter.run(fixed_corpus())


#: (MAP_OUTPUT_BYTES, SHUFFLE_BYTES, REDUCE_INPUT_GROUPS) at tau=3, sigma=4.
PINNED = {
    "NAIVE": (12192, 8038, 1141),
    "APRIORI-SCAN": (8612, 4518, 570),
    "APRIORI-INDEX": (17064, 17064, 1141),
    "SUFFIX-SIGMA": (4176, 4176, 663),
}


@pytest.mark.parametrize("method", sorted(PINNED))
def test_byte_and_group_counters_are_pinned(method):
    result = count(method)
    assert len(result.statistics) == 141
    counters = result.counters
    assert (
        counters.get(names.MAP_OUTPUT_BYTES),
        counters.get(names.SHUFFLE_BYTES),
        counters.get(names.REDUCE_INPUT_GROUPS),
    ) == PINNED[method]


@pytest.mark.parametrize("spill_threshold_bytes", [None, 2048])
def test_a_record_is_measured_once_per_boundary(monkeypatch, spill_threshold_bytes):
    """NAIVE sizes each record once as map, combiner and reduce output.

    With a spill budget the shuffle meters bytes too; it must reuse the size
    the combiner's sink computed, not measure the record again.
    """
    calls = []

    def counting_record_size(key, value):
        calls.append(key)
        return record_size(key, value)

    for module in (context, dataset, runner, shuffle):
        monkeypatch.setattr(module, "record_size", counting_record_size)
    counters = count("NAIVE", spill_threshold_bytes).counters
    emissions = (
        counters.get(names.MAP_OUTPUT_RECORDS)
        + counters.get(names.COMBINE_OUTPUT_RECORDS)
        + counters.get(names.REDUCE_OUTPUT_RECORDS)
    )
    assert counters.get(names.MAP_OUTPUT_BYTES) == PINNED["NAIVE"][0]
    assert 0 < len(calls) <= emissions

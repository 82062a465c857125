"""The four benchmark workloads and the corpora they are made from.

Every workload runs the same pipeline (corpus -> four counting methods ->
store -> reads -> served reads) and prints the same metric names; what
differs is the configuration, chosen so that each one makes a different
layer do most of the work.  ``README.md`` says why each exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.config import ExecutionConfig, NGramJobConfig, StoreConfig
from repro.corpus.collection import DocumentCollection, EncodedCollection
from repro.corpus.document import Document
from repro.corpus.synthetic import (
    NewswireCorpusGenerator,
    SyntheticCorpusConfig,
    WebCorpusGenerator,
)

#: The four counting methods in the order one interleaved round runs them.
METHODS = ("naive", "apriori_scan", "apriori_index", "suffix_sigma")

# The generator presets of ``repro.harness.datasets`` (NYT-like, CW-like).
# The harness caches generated corpora per process, which would turn every
# repeated set-up after the first into a cache hit, so the generators are
# driven directly.
_GENERATORS = {
    "newswire": (
        NewswireCorpusGenerator,
        dict(vocabulary_size=2_000, sentence_length_mean=19.0,
             sentence_length_stddev=14.0, phrase_probability=0.08),
    ),
    "web": (
        WebCorpusGenerator,
        dict(vocabulary_size=6_000, sentence_length_mean=17.0,
             sentence_length_stddev=17.5, phrase_probability=0.10, zipf_exponent=0.9),
    ),
}

#: Spill budget of the spilling workload and of the ``ExternalShuffle`` probe.
SPILL_BYTES = 16 * 1024

#: Batches the ingest phase cuts every corpus into: one LSM generation each.
LSM_BATCHES = 4

#: Mean tokens per generated document, used only to guess how many to make.
_TOKENS_PER_DOCUMENT = 200


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs and the configuration of every stage."""

    name: str
    generator: str
    #: Exact corpus size.  Document lengths are random, so a fixed document
    #: count moves the corpus size by +-20 % from seed to seed and every
    #: timing with it; the corpus is cut to this many tokens instead.
    tokens: int
    #: Exact store size, for the same reason: the n-grams that reach tau
    #: number +-15 % from seed to seed, and the store phases' timings with
    #: them.  The store keeps this many of the most frequent (all there are
    #: on a seed that yields fewer).
    records: int
    tau: int
    sigma: int
    materialize: str = "memory"
    spill_threshold_bytes: Optional[int] = None
    #: Round-trip the corpus through ``corpus.io`` and count from disk.
    corpus_on_disk: bool = False
    codec: str = "none"
    records_per_block: int = 64
    #: Blocks in the one cache shared by all partitions (reader and servers).
    cache_blocks: int = 4
    #: Read and serve the un-compacted LSM generations (through
    #: ``GenerationView``) and not one store built from the statistics.
    lsm_reads: bool = False

    def job_config(self) -> NGramJobConfig:
        return NGramJobConfig(min_frequency=self.tau, max_length=self.sigma)

    def execution(self, run_dir: str) -> ExecutionConfig:
        return ExecutionConfig(
            runner="local",
            materialize=self.materialize,
            spill_threshold_bytes=self.spill_threshold_bytes,
            spill_dir=os.path.join(run_dir, "spill"),
            dataset_dir=os.path.join(run_dir, "datasets"),
            shard_codec="none",
        )

    def store_config(self) -> StoreConfig:
        return StoreConfig(
            num_partitions=4, codec=self.codec, records_per_block=self.records_per_block
        )

    def quick(self) -> "Workload":
        """The same configuration on a corpus small enough for the tests."""
        spill = self.spill_threshold_bytes
        return replace(
            self,
            tokens=max(1_500, self.tokens // 8),
            records=self.records // 8,
            spill_threshold_bytes=None if spill is None else max(2_048, spill // 8),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="count_mem",
            generator="newswire",
            tokens=9_000,
            records=1_000,
            tau=3,
            sigma=5,
        ),
        Workload(
            name="count_spill",
            generator="web",
            tokens=7_000,
            records=800,
            tau=3,
            sigma=5,
            records_per_block=32,
            materialize="disk",
            spill_threshold_bytes=SPILL_BYTES,
            corpus_on_disk=True,
        ),
        Workload(
            name="store_read",
            generator="newswire",
            tokens=6_000,
            records=20_000,
            tau=1,
            sigma=5,
            records_per_block=256,
            cache_blocks=8,
        ),
        Workload(
            name="ingest_lsm",
            generator="newswire",
            tokens=8_000,
            records=1_600,
            tau=2,
            sigma=5,
            codec="gzip",
            records_per_block=256,
            cache_blocks=16,
            lsm_reads=True,
        ),
    )
}


def generate_corpus(workload: Workload, seed: int) -> DocumentCollection:
    """The workload's raw corpus for ``seed``, cut to exactly ``workload.tokens``."""
    generator_cls, preset = _GENERATORS[workload.generator]
    num_documents = workload.tokens // _TOKENS_PER_DOCUMENT * 2 + 20
    while True:
        config = SyntheticCorpusConfig(num_documents=num_documents, seed=seed, **preset)
        source = generator_cls(config).generate()
        if source.num_token_occurrences >= workload.tokens:
            break
        num_documents *= 2
    cut = DocumentCollection()
    remaining = workload.tokens
    for document in source:
        sentences: List[Any] = []
        for sentence in document.sentences:
            sentences.append(sentence[:remaining])
            remaining -= len(sentences[-1])
            if remaining == 0:
                break
        cut.add(Document.from_sentences(document.doc_id, sentences, document.timestamp))
        if remaining == 0:
            break
    return cut


def most_frequent(statistics: Any, count: int) -> List[Any]:
    """The ``count`` most frequent ``(ngram, frequency)`` records, ties by n-gram."""
    ranked = sorted(statistics.items(), key=lambda record: (-record[1], record[0]))
    return ranked[:count]


def split_batches(collection: EncodedCollection, num_batches: int) -> List[EncodedCollection]:
    """Round-robin document batches sharing the collection's vocabulary."""
    documents = collection.documents
    return [
        EncodedCollection(documents[index::num_batches], collection.vocabulary)
        for index in range(num_batches)
    ]

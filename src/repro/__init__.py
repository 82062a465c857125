"""Reproduction of "Computing n-Gram Statistics in MapReduce" (EDBT 2013).

The package is organised in layers:

``repro.mapreduce``
    An in-process MapReduce engine (jobs, shuffle, counters, partitioners,
    sort comparators, multi-job pipelines) running jobs inline or on a pool
    of worker processes.

``repro.corpus``
    The document-collection substrate: documents, tokenisation, sentence
    splitting, vocabulary construction, integer sequence encoding and
    synthetic corpus generators standing in for the New York Times Annotated
    Corpus and ClueWeb09-B.

``repro.ngrams``
    n-gram primitives: sequence predicates, reverse lexicographic ordering,
    statistics containers and brute-force reference implementations.

``repro.algorithms``
    The paper's algorithms: NAIVE, APRIORI-SCAN, APRIORI-INDEX and the
    contributed SUFFIX-SIGMA method, plus its extensions (maximality,
    closedness, document frequency, time series, inverted indexes).

``repro.ngramstore``
    The serving half: sorted, block-compressed on-disk n-gram tables built
    by a total-order-sort MapReduce job, and a query engine (point, prefix,
    top-k) routing over their range partitions.

``repro.harness``
    The experiment harness reproducing every table and figure of the paper's
    evaluation section from measured wallclock, bytes and records.

The most common entry points are re-exported here for convenience.
"""

from repro.config import ExecutionConfig, NGramJobConfig
from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.corpus.synthetic import NewswireCorpusGenerator, WebCorpusGenerator
from repro.algorithms import (
    AprioriIndexCounter,
    AprioriScanCounter,
    NaiveCounter,
    SuffixSigmaCounter,
    count_ngrams,
)
from repro.ngrams.statistics import NGramStatistics
from repro.ngramstore import NGramStore, build_store

__version__ = "1.0.0"

__all__ = [
    "AprioriIndexCounter",
    "AprioriScanCounter",
    "Document",
    "DocumentCollection",
    "ExecutionConfig",
    "NGramJobConfig",
    "NGramStatistics",
    "NGramStore",
    "NaiveCounter",
    "NewswireCorpusGenerator",
    "SuffixSigmaCounter",
    "WebCorpusGenerator",
    "build_store",
    "count_ngrams",
    "__version__",
]

"""Cross-algorithm agreement: the heart of the correctness argument.

All four methods compute the same well-defined quantity (Section III's
problem statement), so on any input and any parameter setting their outputs
must coincide with each other and with the brute-force reference.  These
property-based tests generate random document collections and parameters and
check exactly that, including under the implementation variations of
Section V (combiner, document splitting) and for document frequencies.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import ALGORITHMS, count_ngrams
from repro.algorithms.apriori_index import AprioriIndexCounter
from repro.algorithms.apriori_scan import AprioriScanCounter
from repro.algorithms.naive import NaiveCounter
from repro.algorithms.suffix_sigma import SuffixSigmaCounter
from repro.config import NGramJobConfig
from repro.corpus.collection import DocumentCollection
from repro.ngrams.reference import (
    reference_document_frequencies,
    reference_ngram_statistics,
)

ALL_COUNTERS = [NaiveCounter, AprioriScanCounter, AprioriIndexCounter, SuffixSigmaCounter]

# Small vocabularies force many repeated n-grams, which is the interesting case.
documents_strategy = st.lists(
    st.lists(st.sampled_from("abcxyz"), min_size=1, max_size=10),
    min_size=1,
    max_size=8,
)
tau_strategy = st.integers(min_value=1, max_value=5)
sigma_strategy = st.one_of(st.none(), st.integers(min_value=1, max_value=5))

relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _collection(documents) -> DocumentCollection:
    return DocumentCollection.from_token_lists(documents)


class TestAgreementWithReference:
    @relaxed
    @given(documents_strategy, tau_strategy, sigma_strategy)
    def test_all_algorithms_match_reference(self, documents, tau, sigma):
        collection = _collection(documents)
        expected = reference_ngram_statistics(
            collection.records(), min_frequency=tau, max_length=sigma
        )
        config = NGramJobConfig(
            min_frequency=tau, max_length=sigma, num_reducers=3, apriori_index_k=2
        )
        for counter_class in ALL_COUNTERS:
            result = counter_class(config).run(collection)
            assert result.statistics == expected, counter_class.name

    @relaxed
    @given(documents_strategy, tau_strategy, sigma_strategy)
    def test_document_splitting_preserves_results(self, documents, tau, sigma):
        collection = _collection(documents)
        expected = reference_ngram_statistics(
            collection.records(), min_frequency=tau, max_length=sigma
        )
        config = NGramJobConfig(
            min_frequency=tau,
            max_length=sigma,
            split_documents=True,
            num_reducers=2,
            apriori_index_k=2,
        )
        for counter_class in (NaiveCounter, SuffixSigmaCounter, AprioriScanCounter):
            result = counter_class(config).run(collection)
            assert result.statistics == expected, counter_class.name

    @relaxed
    @given(documents_strategy, st.integers(min_value=1, max_value=3), sigma_strategy)
    def test_document_frequency_agreement(self, documents, tau, sigma):
        collection = _collection(documents)
        expected = reference_document_frequencies(
            collection.records(), min_frequency=tau, max_length=sigma
        )
        config = NGramJobConfig(
            min_frequency=tau,
            max_length=sigma,
            count_document_frequency=True,
            num_reducers=2,
            apriori_index_k=2,
        )
        for counter_class in ALL_COUNTERS:
            result = counter_class(config).run(collection)
            assert result.statistics == expected, counter_class.name

    @relaxed
    @given(documents_strategy, tau_strategy)
    def test_no_combiner_agreement(self, documents, tau):
        collection = _collection(documents)
        expected = reference_ngram_statistics(
            collection.records(), min_frequency=tau, max_length=3
        )
        config = NGramJobConfig(
            min_frequency=tau, max_length=3, use_combiner=False, num_reducers=2
        )
        for counter_class in (NaiveCounter, AprioriScanCounter):
            result = counter_class(config).run(collection)
            assert result.statistics == expected, counter_class.name


class TestAgreementOnMultiSentenceDocuments:
    @relaxed
    @given(
        st.lists(
            st.lists(
                st.lists(st.sampled_from("abx"), min_size=1, max_size=6),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        ),
        tau_strategy,
    )
    def test_sentence_barriers_respected_by_all_algorithms(self, documents, tau):
        """n-grams never span sentences, for every algorithm."""
        from repro.corpus.document import Document

        collection = DocumentCollection(
            [Document.from_sentences(index, sentences) for index, sentences in enumerate(documents)]
        )
        expected = reference_ngram_statistics(
            collection.records(), min_frequency=tau, max_length=4
        )
        config = NGramJobConfig(
            min_frequency=tau, max_length=4, num_reducers=2, apriori_index_k=2
        )
        for counter_class in ALL_COUNTERS:
            result = counter_class(config).run(collection)
            assert result.statistics == expected, counter_class.name


class TestFacade:
    def test_count_ngrams_by_name(self, running_example, running_example_expected):
        for name in ALGORITHMS:
            result = count_ngrams(
                running_example,
                min_frequency=3,
                max_length=3,
                algorithm=name,
                apriori_index_k=2,
            )
            assert result.statistics.as_dict() == running_example_expected

    def test_count_ngrams_by_class(self, running_example, running_example_expected):
        result = count_ngrams(
            running_example, min_frequency=3, max_length=3, algorithm=SuffixSigmaCounter
        )
        assert result.statistics.as_dict() == running_example_expected

    def test_count_ngrams_aliases(self, running_example):
        for alias in ("suffix-sigma", "Suffix_Sigma", "SUFFIX"):
            result = count_ngrams(running_example, min_frequency=3, max_length=3, algorithm=alias)
            assert result.algorithm == "SUFFIX-SIGMA"

    def test_unknown_algorithm(self, running_example):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            count_ngrams(running_example, algorithm="UNKNOWN")


class TestResultMetadata:
    def test_counting_result_fields(self, running_example):
        result = count_ngrams(running_example, min_frequency=3, max_length=3)
        assert result.elapsed_seconds >= 0
        assert result.map_output_records > 0
        assert result.map_output_bytes > 0
        assert result.num_jobs >= 1
        assert result.config.min_frequency == 3

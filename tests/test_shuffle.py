"""Tests for partitioning, sorting and grouping of map output."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import MapReduceError
from repro.mapreduce.job import Partitioner, SortComparator
from repro.mapreduce.shuffle import (
    group_sorted_records,
    partition_records,
    shuffle,
    sort_partition,
)
from repro.ngrams.ordering import ReverseLexicographicOrder


class TestPartitionRecords:
    def test_all_records_kept(self):
        records = [((i,), i) for i in range(50)]
        partitions = partition_records(records, Partitioner(), 4)
        assert sum(len(partition) for partition in partitions) == 50

    def test_same_key_same_partition(self):
        records = [(("a",), 1), (("a",), 2), (("b",), 3)]
        partitions = partition_records(records, Partitioner(), 3)
        locations = {}
        for index, partition in enumerate(partitions):
            for key, _ in partition:
                locations.setdefault(key, set()).add(index)
        assert all(len(indexes) == 1 for indexes in locations.values())

    def test_invalid_partition_count(self):
        with pytest.raises(MapReduceError):
            partition_records([], Partitioner(), 0)

    def test_out_of_range_partitioner_detected(self):
        class Broken(Partitioner):
            def partition(self, key, num_partitions):
                return num_partitions  # off by one

        with pytest.raises(MapReduceError):
            partition_records([(("a",), 1)], Broken(), 2)

    def test_single_partition(self):
        records = [((i,), i) for i in range(10)]
        partitions = partition_records(records, Partitioner(), 1)
        assert len(partitions) == 1
        assert partitions[0] == records


class TestSortPartition:
    def test_natural_order(self):
        records = [((2,), "b"), ((1,), "a"), ((3,), "c")]
        ordered = sort_partition(records, SortComparator())
        assert [key for key, _ in ordered] == [(1,), (2,), (3,)]

    def test_stable_for_equal_keys(self):
        records = [((1,), "first"), ((1,), "second"), ((1,), "third")]
        ordered = sort_partition(records, SortComparator())
        assert [value for _, value in ordered] == ["first", "second", "third"]

    def test_custom_comparator(self):
        comparator = ReverseLexicographicOrder()
        records = [(("b",), 1), (("b", "a"), 2), (("b", "x"), 3)]
        ordered = sort_partition(records, comparator)
        assert [key for key, _ in ordered] == [("b", "x"), ("b", "a"), ("b",)]

    def test_fast_key_path_matches_comparator_path(self):
        comparator = ReverseLexicographicOrder()
        records = [((3, 1), "a"), ((3,), "b"), ((5,), "c"), ((3, 1, 2), "d")]
        fast = sort_partition(records, comparator)

        class NoFastPath(ReverseLexicographicOrder):
            def sort_key_function(self):
                return None

        slow = sort_partition(records, NoFastPath())
        assert [key for key, _ in fast] == [key for key, _ in slow]

    def test_fast_key_path_falls_back_on_strings(self):
        comparator = ReverseLexicographicOrder()
        records = [(("b",), 1), (("a",), 2)]
        ordered = sort_partition(records, comparator)
        assert [key for key, _ in ordered] == [("b",), ("a",)]


class TestGroupSortedRecords:
    def test_grouping(self):
        comparator = SortComparator()
        records = [(("a",), 1), (("a",), 2), (("b",), 3)]
        groups = list(group_sorted_records(records, comparator))
        assert groups == [(("a",), [1, 2]), (("b",), [3])]

    def test_empty(self):
        assert list(group_sorted_records([], SortComparator())) == []

    def test_single_group(self):
        records = [(("a",), i) for i in range(5)]
        groups = list(group_sorted_records(records, SortComparator()))
        assert len(groups) == 1
        assert groups[0][1] == list(range(5))

    def test_grouping_uses_comparator_equality(self):
        class FirstElementOnly(SortComparator):
            def compare(self, left, right):
                return (left[0] > right[0]) - (left[0] < right[0])

        records = [((1, "x"), "a"), ((1, "y"), "b"), ((2, "z"), "c")]
        groups = list(group_sorted_records(records, FirstElementOnly()))
        assert len(groups) == 2
        assert groups[0][1] == ["a", "b"]

    def test_grouping_on_a_sort_key_function(self):
        """A comparator with a key function groups on equal sort keys.

        The group key handed to the reducer is the first record's own key,
        never the derived sort key.
        """
        records = [((3, 1), "a"), ((3, 1), "b"), ((3,), "c"), ((2, 9), "d")]
        comparator = ReverseLexicographicOrder()
        assert sort_partition(records, comparator) == records
        groups = list(group_sorted_records(iter(records), comparator))
        assert groups == [((3, 1), ["a", "b"]), ((3,), ["c"]), ((2, 9), ["d"])]

    def test_grouping_falls_back_when_the_key_function_rejects_keys(self):
        """String terms break the integer sort key; compare() still groups."""
        comparator = ReverseLexicographicOrder()
        records = sort_partition(
            [(("b",), 1), (("a", "x"), 2), (("b",), 3), (("a",), 4)], comparator
        )
        groups = list(group_sorted_records(records, comparator))
        assert groups == [(("b",), [1, 3]), (("a", "x"), [2]), (("a",), [4])]

    def test_grouping_never_calls_compare_for_keyed_comparators(self):
        class CountingOrder(ReverseLexicographicOrder):
            calls = 0

            def compare(self, left, right):
                type(self).calls += 1
                return super().compare(left, right)

        records = [((index // 2,), index) for index in range(40, 0, -1)]
        comparator = CountingOrder()
        groups = list(group_sorted_records(sort_partition(records, comparator), comparator))
        assert len(groups) == 21
        assert CountingOrder.calls == 0


class TestShuffle:
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(min_value=0, max_value=20)),
                st.integers(),
            ),
            max_size=100,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_shuffle_preserves_records_and_sorts(self, records, num_partitions):
        partitions = shuffle(records, Partitioner(), SortComparator(), num_partitions)
        assert len(partitions) == num_partitions
        flattened = [record for partition in partitions for record in partition]
        assert sorted(flattened, key=repr) == sorted(records, key=repr)
        comparator = SortComparator()
        for partition in partitions:
            keys = [key for key, _ in partition]
            assert all(
                comparator.compare(keys[i], keys[i + 1]) <= 0 for i in range(len(keys) - 1)
            )

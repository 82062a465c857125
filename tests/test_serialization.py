"""Tests for serialised-size accounting at the shuffle boundary."""

import pytest
from hypothesis import given, strategies as st

from repro.algorithms.postings import Posting, PostingList
from repro.exceptions import SerializationError
from repro.mapreduce.serialization import record_size, serialized_size
from repro.util.varint import encoded_length


def reference_serialized_size(obj):
    """The type ladder as it was before the closed-form fast path existed.

    Kept verbatim as the oracle: every size the fast path returns must be the
    size this recursion returns, or byte counters would drift.
    """
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return encoded_length(obj if obj >= 0 else (-obj << 1) | 1)
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        encoded = obj.encode("utf-8")
        return encoded_length(len(encoded)) + len(encoded)
    if isinstance(obj, bytes):
        return encoded_length(len(obj)) + len(obj)
    if isinstance(obj, (tuple, list)):
        return encoded_length(len(obj)) + sum(reference_serialized_size(item) for item in obj)
    if isinstance(obj, dict):
        return encoded_length(len(obj)) + sum(
            reference_serialized_size(key) + reference_serialized_size(value)
            for key, value in obj.items()
        )
    if hasattr(obj, "serialized_size"):
        return obj.serialized_size()
    raise SerializationError(f"cannot size {type(obj).__name__}")


postings = st.builds(
    Posting,
    doc_id=st.integers(0, 10**6),
    seq_id=st.integers(0, 10**4),
    positions=st.lists(st.integers(0, 500), unique=True, max_size=6).map(
        lambda positions: tuple(sorted(positions))
    ),
)

#: Everything jobs emit: ints of any sign and width (bools included), text,
#: bytes, None, floats, sized objects — flat, nested, and as dict entries.
sizable = st.recursive(
    st.one_of(
        st.integers(-(2**80), 2**300),
        st.integers(0, 2**21),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False),
        st.text(max_size=8),
        st.binary(max_size=8),
        postings,
        postings.map(lambda posting: PostingList([posting])),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.integers(-5, 2**40), st.text(max_size=4)), children, max_size=4),
    ),
    max_leaves=12,
)


class TestSerializedSize:
    def test_none_and_bool(self):
        assert serialized_size(None) == 1
        assert serialized_size(True) == 1
        assert serialized_size(False) == 1

    def test_small_int_is_one_byte(self):
        assert serialized_size(0) == 1
        assert serialized_size(127) == 1

    def test_larger_int_grows(self):
        assert serialized_size(128) == 2
        assert serialized_size(2**21) == 4

    def test_negative_int_charged_like_zigzag(self):
        assert serialized_size(-1) == encoded_length(3)
        assert serialized_size(-64) == encoded_length(129)

    def test_float_is_fixed_width(self):
        assert serialized_size(3.25) == 8

    def test_string_utf8_plus_length(self):
        assert serialized_size("abc") == 1 + 3
        assert serialized_size("") == 1

    def test_bytes(self):
        assert serialized_size(b"abcd") == 1 + 4

    def test_tuple_is_sum_plus_length_prefix(self):
        assert serialized_size((1, 2, 3)) == 1 + 3
        assert serialized_size(()) == 1

    def test_nested_structures(self):
        value = ((1, 2), "ab", [3, 4, 5])
        expected = 1 + (1 + 2) + (1 + 2) + (1 + 3)
        assert serialized_size(value) == expected

    def test_dict(self):
        assert serialized_size({1: 2, 3: 4}) == 1 + 4

    def test_object_with_serialized_size_hook(self):
        posting = Posting(doc_id=1, seq_id=0, positions=(0, 3))
        assert serialized_size(posting) == posting.serialized_size()
        posting_list = PostingList([posting])
        assert serialized_size(posting_list) == posting_list.serialized_size()

    def test_unsupported_object_raises(self):
        class Opaque:
            pass

        with pytest.raises(SerializationError):
            serialized_size(Opaque())

    @given(sizable)
    def test_fast_path_equals_reference_ladder(self, obj):
        assert serialized_size(obj) == reference_serialized_size(obj)

    @given(st.lists(st.integers(-3, 2**70), max_size=8).map(tuple), sizable)
    def test_record_size_equals_reference_ladder(self, key, value):
        assert record_size(key, value) == (
            reference_serialized_size(key) + reference_serialized_size(value)
        )

    def test_flat_tuple_edge_shapes_match_reference(self):
        for obj in (
            (),
            (0,),
            (True, 2),
            (1, -1),
            (127, 128, 2**64, 2**255 - 1),
            (2**255,),  # first bit length beyond the 256-entry table
            (2**2000, 1),
            (1, 2.5),
            (1, None),
            (1, "a"),
            (1, (2, 3)),
            tuple(range(200)),
        ):
            assert serialized_size(obj) == reference_serialized_size(obj), obj

    def test_record_size_is_key_plus_value(self):
        assert record_size((1, 2), 3) == serialized_size((1, 2)) + serialized_size(3)

    @given(st.lists(st.integers(min_value=0, max_value=2**30), max_size=20))
    def test_integer_tuple_size_matches_varint_model(self, values):
        expected = 1 + sum(encoded_length(value) for value in values)
        # Length prefix of the tuple is itself a varint; for <= 20 elements it
        # is a single byte.
        assert serialized_size(tuple(values)) == expected

    @given(st.integers(min_value=0, max_value=2**50))
    def test_monotone_in_magnitude(self, value):
        assert serialized_size(value * 2 + 1) >= serialized_size(value)

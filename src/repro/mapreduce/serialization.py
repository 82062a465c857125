"""Serialisation of map output records: size accounting and spill framing.

The paper reports "bytes transferred" between the map- and reduce-phase via
Hadoop's ``MAP_OUTPUT_BYTES`` counter.  In Hadoop that number is the size of
the serialised key-value pairs written by the mappers.  This module computes
the size each emitted Python object would occupy under the compact
serialisation described in Section V of the paper:

* integers (term identifiers, document identifiers, counts, positions) are
  variable-byte encoded;
* integer sequences (n-grams, posting positions) are length-prefixed
  sequences of varints;
* strings fall back to UTF-8;
* tuples/lists are the concatenation of their elements plus a length prefix.

The measurement is intentionally independent of how the in-process engine
actually passes objects around (plain Python references), because what
matters for the reproduction is the number of bytes a real Hadoop cluster
would have shuffled.

:func:`serialized_size` is called for every record at every boundary that
reports bytes (map output, combiner output, reduce output, shards, store
tables), so it has two paths:

* **closed form** — a non-negative ``int`` is sized from its bit length, and
  a flat tuple of non-negative ints (an n-gram key) as its length prefix
  plus, per element, one lookup in a 256-entry table of varint lengths
  indexed by bit length — no recursion, no ``isinstance`` ladder;
* **generic ladder** — every other shape (negative integers, floats, text,
  bytes, ``None``, nested tuples/lists, dicts, objects exposing
  ``serialized_size()``) walks the type ladder recursively.

Invariant: both paths yield the same number for every object, so
``MAP_OUTPUT_BYTES``, ``SHUFFLE_BYTES``, ``SPILLED_BYTES`` and the
``serialized_bytes`` of shards and store tables do not depend on which path
sized a record.  A record is measured once per boundary: whoever sizes it
(:class:`~repro.mapreduce.context.CountingSink`) hands the number on.

The second half of the module is the on-disk record framing used by the
external shuffle (:mod:`repro.mapreduce.shuffle`): spilled runs are streams
of varint-length-prefixed pickled ``(key, value)`` frames, the same framing
idiom :mod:`repro.util.varint` uses for encoded corpus shards.
"""

from __future__ import annotations

import pickle
from typing import Any, BinaryIO, Iterator, Optional, Tuple

from repro.exceptions import SerializationError
from repro.util.varint import encode_varint, encoded_length, read_stream_varint

#: Varint length of a non-negative integer, indexed by its bit length.
_VARINT_LENGTH = bytes(max(1, (bits + 6) // 7) for bits in range(256))
#: Called unbound so that a non-integer element raises ``TypeError``.
_bit_length = int.bit_length


def serialized_size(obj: Any) -> int:
    """Return the number of bytes ``obj`` would occupy when serialised."""
    kind = type(obj)
    if kind is int:
        if obj >= 0:
            return (obj.bit_length() + 6) // 7 or 1
    elif kind is tuple:
        try:
            size = _VARINT_LENGTH[len(obj).bit_length()]
            for item in obj:
                if item < 0:
                    break  # bit_length ignores the sign: leave it to the ladder
                size += _VARINT_LENGTH[_bit_length(item)]
            else:
                return size
        except (TypeError, IndexError):
            pass  # a non-integer element, or an integer beyond the table
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        # Zig-zag style treatment of negatives: one extra bit, same magnitude.
        return encoded_length(obj if obj >= 0 else (-obj << 1) | 1)
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        encoded = obj.encode("utf-8")
        return encoded_length(len(encoded)) + len(encoded)
    if isinstance(obj, bytes):
        return encoded_length(len(obj)) + len(obj)
    if isinstance(obj, (tuple, list)):
        return encoded_length(len(obj)) + sum(serialized_size(item) for item in obj)
    if isinstance(obj, dict):
        return encoded_length(len(obj)) + sum(
            serialized_size(key) + serialized_size(value) for key, value in obj.items()
        )
    if hasattr(obj, "serialized_size"):
        size = obj.serialized_size()
        if not isinstance(size, int) or size < 0:
            raise SerializationError(
                f"serialized_size() of {type(obj).__name__} returned invalid value {size!r}"
            )
        return size
    raise SerializationError(
        f"cannot compute serialised size of object of type {type(obj).__name__}"
    )


def record_size(key: Any, value: Any) -> int:
    """Serialised size of one key-value record at the shuffle boundary."""
    return serialized_size(key) + serialized_size(value)


# --------------------------------------------------------- spill framing
def write_frame(handle: BinaryIO, payload: bytes) -> int:
    """Append one varint-length-prefixed byte frame; returns bytes written.

    The frame is ``varint(len(payload)) + payload`` — the length prefix of
    the spill files, the store's data blocks, and the binary wire protocol
    (:mod:`repro.ngramstore.wire`), so every layer shares one framing idiom.
    """
    header = encode_varint(len(payload))
    handle.write(header)
    handle.write(payload)
    return len(header) + len(payload)


def read_frame(handle: BinaryIO, max_bytes: Optional[int] = None) -> Optional[bytes]:
    """Read one byte frame; ``None`` at a clean end-of-stream.

    A stream ending mid-frame (or a frame longer than ``max_bytes``) raises
    — both can only mean truncation or a corrupt/hostile peer.
    """
    length, at_eof = read_stream_varint(handle)
    if at_eof:
        return None
    if max_bytes is not None and length > max_bytes:
        raise SerializationError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    payload = handle.read(length)
    if len(payload) != length:
        raise SerializationError(
            f"truncated frame: expected {length} bytes, got {len(payload)}"
        )
    return payload


def write_framed_record(handle: BinaryIO, key: Any, value: Any) -> int:
    """Append one varint-length-prefixed record frame to ``handle``.

    Returns the number of bytes written.  The payload is a pickled
    ``(key, value)`` tuple; pickling keeps the framing independent of the
    key/value types jobs emit (tuples of term identifiers, posting lists,
    counts, ...).
    """
    try:
        payload = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SerializationError(
            f"cannot spill record with key of type {type(key).__name__} and "
            f"value of type {type(value).__name__}: {exc}"
        ) from exc
    return write_frame(handle, payload)


def read_framed_records(handle: BinaryIO) -> Iterator[Tuple[Any, Any]]:
    """Iterate over the record frames of an open spill file."""
    while True:
        payload = read_frame(handle)
        if payload is None:
            return
        yield pickle.loads(payload)

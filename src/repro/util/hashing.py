"""Deterministic hashing helpers.

Python's built-in ``hash`` for ``str`` is randomised per process, which would
make reducer partition assignment (and therefore experiment measurements)
non-reproducible across runs, and persisted Bloom filters useless.
:func:`stable_hash` is the one hash both the partitioners of
:mod:`repro.mapreduce` and the block filters of :mod:`repro.util.bloom` use.
It touches every map output record and every point lookup, so it has two
paths, chosen by the key's value alone:

* **packed path** — a flat tuple of integers that each fit a signed 64-bit
  word (every n-gram key the counting jobs emit) is packed into its
  little-endian ``int64`` bytes and hashed with one C call
  (:func:`zlib.crc32`), then spread over 64 bits by :func:`_mix64`;
* **generic path** — everything else: a splitmix64 mix for single integers,
  CRC32 for text and bytes, and an order-sensitive recursive combination for
  tuples that are nested, hold text, or hold integers beyond 64 bits.

Invariants:

* the result depends only on the key's value — not on ``PYTHONHASHSEED``,
  the process, or the machine's byte order (the packing is explicitly
  little-endian);
* equal keys hash equal: which path a tuple takes is decided by its elements'
  values, and ``bool`` elements pack as the integers they equal, so
  ``(True, 2)`` and ``(1, 2)`` agree;
* Bloom filters built from this hash are persisted in ``.ngt`` block indexes,
  so changing the function is a table format change —
  :data:`repro.ngramstore.format.FORMAT_VERSION` 2 is the version written
  with the packed path, and tables of version 1 are refused.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple, Union

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

#: ``_PACK_INT64[n]`` packs ``n`` integers as little-endian signed 64-bit
#: words; longer tuples take the generic path (n-grams are a handful of terms).
_PACK_INT64 = tuple(struct.Struct(f"<{count}q").pack for count in range(33))

Hashable = Union[int, str, bytes, Tuple[object, ...]]


def _mix64(value: int) -> int:
    """splitmix64 finaliser: a fast, well-distributed 64-bit mix."""
    value = (value + _GOLDEN) & _MASK
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK
    value ^= value >> 31
    return value


def stable_hash(key: Hashable) -> int:
    """Return a deterministic 64-bit hash of ``key``.

    Supports integers, strings, bytes and (nested) tuples of those, which
    covers every key type the MapReduce jobs in this package emit.
    """
    if isinstance(key, tuple):
        try:
            return _mix64(zlib.crc32(_PACK_INT64[len(key)](*key)))
        except (struct.error, IndexError):
            pass  # not a short flat tuple of int64-sized integers
        value = 0x2545F4914F6CDD1D
        for element in key:
            value = _mix64(value ^ stable_hash(element))
        return value
    if isinstance(key, bool):  # bool is an int subclass; normalise explicitly
        return _mix64(1 if key else 0)
    if isinstance(key, int):
        return _mix64(key & _MASK)
    if isinstance(key, bytes):
        return _mix64(zlib.crc32(key) & _MASK)
    if isinstance(key, str):
        return _mix64(zlib.crc32(key.encode("utf-8")) & _MASK)
    raise TypeError(f"unsupported key type for stable_hash: {type(key)!r}")

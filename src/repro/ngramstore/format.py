"""On-disk format of one n-gram table file.

A table is an immutable, sorted run of ``(ngram, value)`` records — the
SSTable idiom: batch jobs write tables once, the serving layer reads them
with seeks instead of loading them.  The layout is::

    +-----------------------------+ offset 0
    | header magic  ``NGSTORE1``  |
    +-----------------------------+
    | data block 0                |  varint-framed records
    | data block 1                |  (optionally codec-compressed)
    | ...                         |
    +-----------------------------+
    | block index                 |  pickled list of BlockHandle tuples
    +-----------------------------+
    | footer                      |  pickled metadata dict
    +-----------------------------+
    | footer offset (8 bytes LE)  |
    | trailer magic ``NGSTORE1``  |
    +-----------------------------+ end of file

Each data block is the concatenated varint-length-prefixed record frames of
:mod:`repro.mapreduce.serialization` (the same framing shards and spill
files use), compressed as one unit by the table's codec — per-block
compression keeps random reads cheap (decompress one block, not the file)
while still exploiting redundancy between neighbouring keys.  The block
index records every block's first and last key, so a reader binary-searches
the index and touches exactly one block per point lookup.
"""

from __future__ import annotations

import io
import pickle
import zlib
from typing import Any, BinaryIO, Dict, List, NamedTuple, Tuple

from repro.exceptions import StoreError
from repro.mapreduce.serialization import read_framed_records, write_framed_record
from repro.util.codecs import Codec
from repro.util.varint import decode_varint

#: Magic bytes opening and closing every table file.
MAGIC = b"NGSTORE1"

#: Format version recorded in the footer (bump on incompatible changes).
#: Version 2: block Bloom filters are built with the packed-int64 path of
#: :func:`repro.util.hashing.stable_hash`.  A version-1 filter probed with
#: today's hash would answer "absent" for present keys, so version-1 tables
#: are refused outright; rebuilding the store is the migration.
FORMAT_VERSION = 2

#: Length of the fixed-size trailer: footer offset + magic.
TRAILER_LENGTH = 8 + len(MAGIC)

Record = Tuple[Any, Any]


class BlockHandle(NamedTuple):
    """Index entry locating one data block inside the table file.

    ``max_value`` is the block's largest *numeric* value (``None`` when the
    block holds non-numeric values).  Frequency-ordered top-k uses it to
    skip blocks whose best possible record cannot beat the current heap
    floor.

    ``bloom`` is the block's Bloom filter over its keys, as the plain
    ``(num_bits, num_hashes, bits)`` spec of
    :class:`repro.util.bloom.BloomFilter` — ``None`` when filters were
    disabled at write time.  Point lookups consult it before touching the
    data block, so a guaranteed miss costs no block read at all.

    ``checksum`` is the CRC32 of the block's stored payload (the bytes on
    disk, after any codec compression).  Readers verify it before decoding
    a block, so a flipped bit surfaces as a
    :class:`~repro.exceptions.StoreError` naming the partition and block
    instead of silently wrong counts or an opaque unpickling crash.

    Every field is required: an index entry with fewer fields comes from a
    format :data:`FORMAT_VERSION` already refuses, and is refused too.
    """

    first_key: Any
    last_key: Any
    offset: int
    length: int
    num_records: int
    max_value: Any
    bloom: Any
    checksum: int


def block_checksum(payload: "bytes | memoryview") -> int:
    """CRC32 of a block's stored payload, normalised to an unsigned int."""
    return zlib.crc32(payload) & 0xFFFFFFFF


def encode_block(records: List[Record], codec: Codec) -> bytes:
    """Serialise one block of records (framed, then compressed as a unit)."""
    buffer = io.BytesIO()
    for key, value in records:
        write_framed_record(buffer, key, value)
    return codec.compress(buffer.getvalue())


def decode_block(payload: bytes, codec: Codec) -> List[Record]:
    """Invert :func:`encode_block`."""
    return list(read_framed_records(io.BytesIO(codec.decompress(payload))))


def decode_block_view(view: "memoryview") -> List[Record]:
    """Decode an *uncompressed* block straight from a byte buffer.

    The zero-copy twin of :func:`decode_block` for mmap-backed tables: the
    varint frame walk indexes the buffer in place and each record is
    unpickled from a ``memoryview`` slice, so no intermediate ``bytes``
    copy of the block payload is ever made.  Only valid for the ``none``
    codec — compressed blocks must be decompressed (a copy) first, which
    is why the table falls back to the file-I/O path for them.
    """
    records: List[Record] = []
    offset = 0
    end = len(view)
    while offset < end:
        length, offset = decode_varint(view, offset)
        if offset + length > end:
            raise StoreError(
                f"truncated record frame in block: frame of {length} bytes "
                f"at offset {offset} overruns the {end}-byte block"
            )
        records.append(pickle.loads(view[offset : offset + length]))
        offset += length
    return records


def write_index(handle: BinaryIO, index: List[BlockHandle]) -> Tuple[int, int]:
    """Append the block index; returns its ``(offset, length)``."""
    offset = handle.tell()
    payload = pickle.dumps([tuple(entry) for entry in index], protocol=pickle.HIGHEST_PROTOCOL)
    handle.write(payload)
    return offset, len(payload)


def write_footer(handle: BinaryIO, footer: Dict[str, Any]) -> None:
    """Append the footer dict and the fixed-size trailer."""
    offset = handle.tell()
    handle.write(pickle.dumps(footer, protocol=pickle.HIGHEST_PROTOCOL))
    handle.write(offset.to_bytes(8, "little"))
    handle.write(MAGIC)


def read_footer(handle: BinaryIO) -> Dict[str, Any]:
    """Read and validate the footer of an open table file."""
    handle.seek(0, io.SEEK_END)
    file_length = handle.tell()
    if file_length < len(MAGIC) + TRAILER_LENGTH:
        raise StoreError(f"table file too short ({file_length} bytes) to be a store table")
    handle.seek(0)
    if handle.read(len(MAGIC)) != MAGIC:
        raise StoreError("bad header magic: not an n-gram store table")
    handle.seek(file_length - TRAILER_LENGTH)
    trailer = handle.read(TRAILER_LENGTH)
    if trailer[8:] != MAGIC:
        raise StoreError("bad trailer magic: truncated or corrupt table file")
    footer_offset = int.from_bytes(trailer[:8], "little")
    if not len(MAGIC) <= footer_offset < file_length - TRAILER_LENGTH:
        raise StoreError(f"footer offset {footer_offset} outside the table file")
    handle.seek(footer_offset)
    try:
        footer = pickle.loads(handle.read(file_length - TRAILER_LENGTH - footer_offset))
    except Exception as exc:
        raise StoreError(f"cannot decode table footer: {exc}") from exc
    if not isinstance(footer, dict):
        raise StoreError(f"table footer is {type(footer).__name__}, expected dict")
    version = footer.get("version")
    if version != FORMAT_VERSION:
        raise StoreError(
            f"unsupported table format version {version!r} (expected {FORMAT_VERSION})"
        )
    return footer


def read_index(handle: BinaryIO, footer: Dict[str, Any]) -> List[BlockHandle]:
    """Read the block index located by ``footer``."""
    handle.seek(footer["index_offset"])
    payload = handle.read(footer["index_length"])
    try:
        entries = pickle.loads(payload)
    except Exception as exc:
        raise StoreError(f"cannot decode table block index: {exc}") from exc
    try:
        return [BlockHandle(*entry) for entry in entries]
    except TypeError as exc:
        raise StoreError(f"malformed table block index: {exc}") from exc

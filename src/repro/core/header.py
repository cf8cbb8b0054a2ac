"""Self-describing compressed-stream container.

Every codec's output starts with a fixed header (magic, version, codec id,
dtype, shape, flags, absolute error bound) followed by length-prefixed
sections so codecs can store as many sub-streams as they need.
Decompression never requires out-of-band information.

Two stream layouts share the header (``flags`` distinguishes them):

* a **plain stream** — header + one codec payload covering the whole array;
* a **chunked container** (``FLAG_CHUNKED``) — header + a chunk index
  (per-chunk start, shape, byte offset, byte length) + the concatenated
  per-chunk streams, enabling random access without reading the rest of
  the container (see :mod:`repro.chunked` and DESIGN.md §2/§5).

Readers open both alike: a plain stream is a container of one chunk,
itself (:func:`repro.chunked.container.read_container_info`).

Version history: v1 had no flags byte and only described plain streams;
v2 adds ``flags``; v3 (``VERSION_CHECKSUM``) appends a u32 checksum of
the fixed header + dims, and its chunk-index entries each carry a u64
content digest of the chunk's stored bytes.  :func:`parse_header` still
reads v1 and v2 streams; plain codec streams keep writing v2 (no
per-chunk payloads to protect), only the chunked writer emits v3.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DecompressionError
from repro.utils import dtype_code, dtype_from_code

MAGIC = b"RPZ1"
VERSION = 2

#: stream version carrying integrity checksums: a u32 header checksum
#: after the dims and a u64 blake2s-8 digest per chunk-index entry
VERSION_CHECKSUM = 3

#: header flag: the payload is a chunk index + per-chunk streams, not a
#: single codec payload (``codec_id`` then names the *inner* codec)
FLAG_CHUNKED = 0x01

#: a stream prefix long enough to parse any header the writers emit (the
#: largest, a 4-D v3 container's, is 17 + 32 + 4 = 53 bytes)
HEADER_PROBE_BYTES = 64

_PREFIX = struct.Struct("<4sB")  # magic, version
_FIXED_V1 = struct.Struct("<4sBBBBd")  # magic, version, codec, dtype, ndim, eb
_FIXED_V2 = struct.Struct("<4sBBBBBd")  # ... + flags before eb


def header_checksum(head: bytes) -> int:
    """u32 blake2s-4 checksum of the serialized fixed header + dims."""
    digest = hashlib.blake2s(head, digest_size=4).digest()
    (value,) = struct.unpack("<I", digest)
    return value


def chunk_digest(blob: bytes) -> int:
    """u64 blake2s-8 content digest of one stored chunk's bytes."""
    digest = hashlib.blake2s(blob, digest_size=8).digest()
    (value,) = struct.unpack("<Q", digest)
    return value


@dataclass(frozen=True)
class StreamHeader:
    """Parsed fixed header of a compressed stream."""

    codec_id: int
    dtype: np.dtype
    shape: Tuple[int, ...]
    error_bound: float
    version: int = VERSION
    flags: int = 0

    @property
    def is_chunked(self) -> bool:
        """True when the stream is a multi-chunk container."""
        return bool(self.flags & FLAG_CHUNKED)


def pack_header(
    codec_id: int,
    dtype: np.dtype,
    shape: Sequence[int],
    error_bound: float,
    flags: int = 0,
    version: int = VERSION,
) -> bytes:
    """Serialize the fixed header (v2 by default, v3 appends a checksum)."""
    if version not in (VERSION, VERSION_CHECKSUM):
        raise ValueError(f"cannot write stream version {version}")
    head = _FIXED_V2.pack(
        MAGIC,
        version,
        codec_id,
        dtype_code(dtype),
        len(shape),
        int(flags),
        float(error_bound),
    )
    dims = struct.pack(f"<{len(shape)}Q", *shape)
    if version == VERSION_CHECKSUM:
        return head + dims + struct.pack("<I", header_checksum(head + dims))
    return head + dims


def parse_header(blob: bytes) -> Tuple[StreamHeader, int]:
    """Parse the fixed header; returns (header, payload offset).

    Accepts every stream version ever written (v1 streams have no flags
    byte and are never chunked).
    """
    if len(blob) < _PREFIX.size:
        raise DecompressionError("stream too short for header")
    magic, version = _PREFIX.unpack_from(blob, 0)
    if magic != MAGIC:
        raise DecompressionError("bad magic (not a repro stream)")
    if version == 1:
        fixed = _FIXED_V1
    elif version in (VERSION, VERSION_CHECKSUM):
        fixed = _FIXED_V2
    else:
        raise DecompressionError(f"unsupported stream version {version}")
    if len(blob) < fixed.size:
        raise DecompressionError("stream too short for header")
    if version == 1:
        _, _, codec_id, dcode, ndim, eb = fixed.unpack_from(blob, 0)
        flags = 0
    else:
        _, _, codec_id, dcode, ndim, flags, eb = fixed.unpack_from(blob, 0)
    off = fixed.size
    if len(blob) < off + 8 * ndim:
        raise DecompressionError("stream truncated in shape header")
    shape = struct.unpack_from(f"<{ndim}Q", blob, off)
    if not shape or 0 in shape:  # writers emit non-empty arrays, rank >= 1
        raise DecompressionError(f"stream declares a degenerate shape {shape}")
    off += 8 * ndim
    if version == VERSION_CHECKSUM:
        if len(blob) < off + 4:
            raise DecompressionError("stream truncated in header checksum")
        (stored,) = struct.unpack_from("<I", blob, off)
        if stored != header_checksum(blob[:off]):
            raise DecompressionError("header checksum mismatch")
        off += 4
    return (
        StreamHeader(
            codec_id=codec_id,
            dtype=dtype_from_code(dcode),
            shape=tuple(int(n) for n in shape),
            error_bound=float(eb),
            version=int(version),
            flags=int(flags),
        ),
        off,
    )


def pack_sections(sections: Sequence[bytes]) -> bytes:
    """Concatenate byte sections with u64 length prefixes."""
    parts: List[bytes] = [struct.pack("<I", len(sections))]
    for s in sections:
        parts.append(struct.pack("<Q", len(s)))
        parts.append(s)
    return b"".join(parts)


def unpack_sections(blob: bytes, offset: int = 0) -> List[bytes]:
    """Inverse of :func:`pack_sections`."""
    if len(blob) < offset + 4:
        raise DecompressionError("stream truncated in section table")
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    sections = []
    for _ in range(count):
        if len(blob) < offset + 8:
            raise DecompressionError("stream truncated in section length")
        (n,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        if len(blob) < offset + n:
            raise DecompressionError("stream truncated in section body")
        sections.append(blob[offset : offset + n])
        offset += n
    return sections


# --------------------------------------------------------------- chunk index
#
# The chunk index sits between the fixed header and the chunk payloads of a
# FLAG_CHUNKED container.  It has a *fixed, predictable size* for a given
# (ndim, n_chunks) so a streaming writer can reserve the bytes up front,
# write chunks as they are compressed, and patch the index afterwards.
#
# Layout:  ndim * u32 nominal chunk shape, u64 n_chunks, then per chunk:
# ndim * u64 start, ndim * u32 shape, u64 byte offset (relative to the
# first byte after the index), u64 byte length, and — in v3 containers
# only — a trailing u64 blake2s-8 digest of the chunk's stored bytes.
# Starts are u64 because they range over the full array extent (which the
# header stores as u64); chunk *shapes* are bounded by the nominal tile
# size and fit u32.


@dataclass(frozen=True)
class ChunkEntry:
    """One chunk's placement in the array and in the byte stream."""

    start: Tuple[int, ...]
    shape: Tuple[int, ...]
    offset: int  # bytes from the start of the data area
    nbytes: int
    checksum: Optional[int] = None  # u64 content digest (v3 containers)

    @property
    def slices(self) -> Tuple[slice, ...]:
        """Index of this chunk's region in the full array."""
        return tuple(slice(s, s + n) for s, n in zip(self.start, self.shape))


def chunk_index_size(
    ndim: int, n_chunks: int, with_checksums: bool = False
) -> int:
    """Exact byte size of a packed chunk index."""
    entry = (12 * ndim + 24) if with_checksums else (12 * ndim + 16)
    return 4 * ndim + 8 + n_chunks * entry


def pack_chunk_index(
    chunk_shape: Sequence[int],
    entries: Sequence[ChunkEntry],
    with_checksums: bool = False,
) -> bytes:
    """Serialize the chunk index (nominal tile shape + per-chunk entries)."""
    ndim = len(chunk_shape)
    parts = [
        struct.pack(f"<{ndim}I", *chunk_shape),
        struct.pack("<Q", len(entries)),
    ]
    for e in entries:
        parts.append(struct.pack(f"<{ndim}Q", *e.start))
        parts.append(struct.pack(f"<{ndim}I", *e.shape))
        parts.append(struct.pack("<QQ", e.offset, e.nbytes))
        if with_checksums:
            if e.checksum is None:
                raise ValueError(
                    "v3 chunk index requires a checksum on every entry"
                )
            parts.append(struct.pack("<Q", e.checksum))
    return b"".join(parts)


def unpack_chunk_index(
    blob: bytes, offset: int, ndim: int, with_checksums: bool = False
) -> Tuple[Tuple[int, ...], List[ChunkEntry], int]:
    """Inverse of :func:`pack_chunk_index`.

    Returns ``(chunk_shape, entries, end_offset)``.
    """
    if len(blob) < offset + 4 * ndim + 8:
        raise DecompressionError("stream truncated in chunk index header")
    chunk_shape = struct.unpack_from(f"<{ndim}I", blob, offset)
    offset += 4 * ndim
    (count,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    entry_size = (12 * ndim + 24) if with_checksums else (12 * ndim + 16)
    if len(blob) < offset + count * entry_size:
        raise DecompressionError("stream truncated in chunk index entries")
    entries = []
    for _ in range(count):
        start = struct.unpack_from(f"<{ndim}Q", blob, offset)
        shape = struct.unpack_from(f"<{ndim}I", blob, offset + 8 * ndim)
        off, nbytes = struct.unpack_from("<QQ", blob, offset + 12 * ndim)
        checksum: Optional[int] = None
        if with_checksums:
            (checksum,) = struct.unpack_from("<Q", blob, offset + 12 * ndim + 16)
        entries.append(
            ChunkEntry(
                start=tuple(int(s) for s in start),
                shape=tuple(int(n) for n in shape),
                offset=int(off),
                nbytes=int(nbytes),
                checksum=checksum,
            )
        )
        offset += entry_size
    return tuple(int(c) for c in chunk_shape), entries, offset

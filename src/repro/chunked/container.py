"""Byte-level layout of the multi-chunk container (RPZ1, FLAG_CHUNKED).

A container is::

    fixed header (magic, version, inner codec id, dtype, array shape,
                  FLAG_CHUNKED, absolute error bound; v3 appends a
                  u32 header checksum)
    chunk index  (nominal chunk shape + per-chunk start/shape/offset/len;
                  v3 entries append a u64 blake2s-8 content digest)
    chunk data   (each chunk an ordinary self-describing codec stream)

New containers are written at v3 (``VERSION_CHECKSUM``); v2 containers
(no checksums) remain fully readable, pinned by golden fixtures.  A plain
stream (FLAG_CHUNKED clear) reads as a container of one chunk: itself
(:func:`read_container_info`), so every reader takes one path.

The index has a fixed size for a given (ndim, n_chunks), so
:class:`ChunkedWriter` reserves it up front, streams compressed chunks to
the file as they arrive (bounding peak memory by one chunk), and patches
the index in :meth:`ChunkedWriter.finalize`.  Chunk byte offsets are
relative to the first byte after the index, so reading chunk *i* touches
exactly ``entries[i].nbytes`` payload bytes — the basis of the random
access guarantee tested in ``tests/chunked``.
"""

from __future__ import annotations

import io
import itertools
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Union

import numpy as np

from repro.chunked.tiling import ChunkGrid
from repro.core.header import (
    FLAG_CHUNKED,
    HEADER_PROBE_BYTES,
    VERSION_CHECKSUM,
    ChunkEntry,
    StreamHeader,
    chunk_digest,
    chunk_index_size,
    pack_chunk_index,
    pack_header,
    parse_header,
    unpack_chunk_index,
)
from repro.errors import CompressionError, DecompressionError


@dataclass(frozen=True)
class ContainerInfo:
    """Parsed metadata of a chunked container (no chunk payloads); a
    plain stream's is one chunk, the stream itself."""

    header: StreamHeader
    grid: ChunkGrid
    entries: List[ChunkEntry]
    data_start: int  # absolute byte offset of the first chunk payload
    data_end: int  # absolute byte offset just past the stored bytes
    plain: bool = False  # a plain stream read as a one-chunk container

    @property
    def kind(self) -> str:
        return "plain stream" if self.plain else "chunked container"

    @property
    def total_bytes(self) -> int:
        """Container size implied by the index (header + index + data)."""
        return self.data_start + sum(e.nbytes for e in self.entries)


class ChunkedWriter:
    """Streams a chunked container to a seekable binary file object.

    Chunks may be written in any order (each exactly once); they are laid
    out in the file in write order, and the index records where each one
    landed.  Call :meth:`finalize` (or use as a context manager) to patch
    the reserved index region.
    """

    def __init__(
        self,
        fileobj: BinaryIO,
        codec_id: int,
        dtype: np.dtype,
        grid: ChunkGrid,
        error_bound: float,
        version: int = VERSION_CHECKSUM,
    ) -> None:
        self._file = fileobj
        self._grid = grid
        self._base = fileobj.tell()
        self._version = int(version)
        self._with_checksums = self._version == VERSION_CHECKSUM
        self._header = StreamHeader(
            codec_id=codec_id,
            dtype=np.dtype(dtype),
            shape=grid.shape,
            error_bound=float(error_bound),
            version=self._version,
            flags=FLAG_CHUNKED,
        )
        head = pack_header(
            codec_id,
            dtype,
            grid.shape,
            error_bound,
            flags=FLAG_CHUNKED,
            version=self._version,
        )
        fileobj.write(head)
        self._index_pos = fileobj.tell()
        self._index_size = chunk_index_size(
            len(grid.shape), grid.n_chunks, self._with_checksums
        )
        fileobj.write(b"\x00" * self._index_size)
        self._data_start = fileobj.tell()
        self._next_offset = 0
        self._entries: List[Optional[ChunkEntry]] = [None] * grid.n_chunks
        self._finalized = False

    def write_chunk(self, index: int, blob: bytes) -> None:
        """Append one compressed chunk's stream to the data area."""
        if self._finalized:
            raise CompressionError("writer already finalized")
        if self._entries[index] is not None:
            raise CompressionError(f"chunk {index} written twice")
        self._file.seek(self._data_start + self._next_offset)
        self._file.write(blob)
        self._entries[index] = ChunkEntry(
            start=self._grid.chunk_start(index),
            shape=self._grid.chunk_shape_at(index),
            offset=self._next_offset,
            nbytes=len(blob),
            checksum=chunk_digest(blob) if self._with_checksums else None,
        )
        self._next_offset += len(blob)

    def finalize(self) -> ContainerInfo:
        """Patch the chunk index and return the container metadata."""
        missing = [i for i, e in enumerate(self._entries) if e is None]
        if missing:
            raise CompressionError(
                f"cannot finalize: {len(missing)} chunk(s) never written "
                f"(first missing: {missing[0]})"
            )
        self._file.seek(self._index_pos)
        index = pack_chunk_index(
            self._grid.chunk_shape, self._entries, self._with_checksums
        )
        assert len(index) == self._index_size
        self._file.write(index)
        self._file.seek(self._data_start + self._next_offset)
        self._finalized = True
        return ContainerInfo(
            header=self._header,
            grid=self._grid,
            entries=list(self._entries),
            data_start=self._data_start,
            data_end=self._data_start + self._next_offset,
        )

    def __enter__(self) -> "ChunkedWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._finalized:
            self.finalize()


def read_container_info(fileobj: BinaryIO, base: int = 0) -> ContainerInfo:
    """Parse header + chunk index of a stream without touching chunk data.

    The one place a reader tells the two stream kinds apart: a plain
    stream (FLAG_CHUNKED clear) is a container of one chunk, itself —
    the grid ``ChunkGrid(shape, shape)``, one entry at offset 0 spanning
    the whole stream with no checksum, and ``data_start`` the stream's
    own start.  A container's index is not checksummed, so it is checked
    against what the header implies before anything is sized from it:
    the entries must fit the stream, and their starts and shapes must be
    exactly the grid the header shape and the nominal chunk shape tile.
    """
    fileobj.seek(base)
    header, off = parse_header(fileobj.read(HEADER_PROBE_BYTES))
    end = fileobj.seek(0, io.SEEK_END)
    if not header.is_chunked:
        whole = ChunkEntry(
            start=(0,) * len(header.shape), shape=header.shape, offset=0,
            nbytes=end - base,
        )
        return ContainerInfo(
            header=header, grid=ChunkGrid(header.shape, header.shape),
            entries=[whole], data_start=base, data_end=end, plain=True,
        )
    ndim = len(header.shape)
    with_checksums = header.version == VERSION_CHECKSUM
    fileobj.seek(base + off)
    # the index size is known once n_chunks is — read its fixed prelude,
    # then the entries (v3 entries carry a trailing u64 digest)
    prelude = fileobj.read(4 * ndim + 8)
    if len(prelude) < 4 * ndim + 8:
        raise DecompressionError("stream truncated in chunk index header")
    (count,) = struct.unpack_from("<Q", prelude, 4 * ndim)
    data_start = base + off + chunk_index_size(ndim, count, with_checksums)
    if data_start > end:
        raise DecompressionError("stream truncated in chunk index entries")
    body = fileobj.read(data_start - base - off - len(prelude))
    chunk_shape, entries, _ = unpack_chunk_index(
        prelude + body, 0, ndim, with_checksums
    )
    if not all(1 <= c <= n for c, n in zip(chunk_shape, header.shape)):
        raise DecompressionError(
            f"chunk shape {chunk_shape} does not tile the array shape "
            f"{header.shape}"
        )
    grid = ChunkGrid(header.shape, chunk_shape)
    if grid.n_chunks != len(entries):
        raise DecompressionError(
            f"chunk index has {len(entries)} entries but the grid implies "
            f"{grid.n_chunks}"
        )
    starts = itertools.product(
        *(range(0, n, c) for n, c in zip(header.shape, chunk_shape))
    )
    for i, (entry, start) in enumerate(zip(entries, starts)):
        shape = tuple(
            min(c, n - s) for c, n, s in zip(chunk_shape, header.shape, start)
        )
        if entry.start != start or entry.shape != shape:
            raise DecompressionError(
                f"chunk index entry {i} (start {entry.start}, shape "
                f"{entry.shape}) is not the grid's chunk {i}"
            )
    return ContainerInfo(
        header=header, grid=grid, entries=entries, data_start=data_start,
        data_end=end,
    )


def as_fileobj(
    source: Union[
        bytes, bytearray, memoryview, str, "os.PathLike[str]", BinaryIO
    ]
):
    """Open a path, wrap bytes in a BytesIO, pass file objects through.

    Returns ``(fileobj, should_close)``.
    """
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        return open(source, "rb"), True
    if isinstance(source, (bytes, bytearray, memoryview)):
        return io.BytesIO(bytes(source)), True
    return source, False

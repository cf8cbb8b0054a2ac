"""Chunked out-of-core compression: tiling, container format, random access.

The unchunked path (:mod:`repro.compressors`) compresses one whole array
per call, so memory scales with the domain and decompression is
all-or-nothing.  This package tiles an N-D field into configurable blocks
(default 256 per axis), compresses each block independently through any
registered codec under one shared absolute error bound, and packs the
results into a self-describing multi-chunk container (RPZ1 v3: a chunk
index with one content digest per chunk) — enabling out-of-core
compression, process-pool fan-out over chunks, and random access to
single chunks or hyperslabs without reading the rest of the stream.  See
DESIGN.md §5.

It is reached through the facade::

    import repro

    blob = repro.compress(data, codec="qoz", chunks=64, bound="rel:1e-3")
    with repro.open(blob) as f:
        sub = f.read((slice(0, 16), None, slice(8, 24)))  # hyperslab
"""

from repro.chunked.api import (
    ChunkedFile,
    ChunkFault,
    VerifyReport,
    verify_container,
)
from repro.chunked.container import ChunkedWriter, ContainerInfo, read_container_info
from repro.chunked.tiling import DEFAULT_CHUNK, ChunkGrid, grid_for, normalize_chunk_shape

__all__ = [
    "ChunkedFile",
    "ChunkedWriter",
    "ChunkFault",
    "ChunkGrid",
    "ContainerInfo",
    "DEFAULT_CHUNK",
    "VerifyReport",
    "grid_for",
    "normalize_chunk_shape",
    "read_container_info",
    "verify_container",
]

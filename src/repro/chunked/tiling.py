"""Regular N-D tiling of an array into compression chunks.

A :class:`ChunkGrid` covers an array shape with axis-aligned tiles of a
nominal chunk shape (default 256 per dimension); tiles at the high edge of
an axis are truncated to fit.  Chunks are addressed by a flat index in
row-major order over the chunk grid, which is also the order they are laid
out in a chunked container (:mod:`repro.chunked.container`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.utils import ceil_div

#: default chunk edge per dimension (the paper's exascale dumps are tiled
#: far coarser; 256^d keeps per-chunk memory in the tens of MB for 3-D
#: float64 while leaving enough interpolation levels per tile)
DEFAULT_CHUNK = 256

Slab = Sequence[Union[slice, Tuple[int, int], None]]


def normalize_chunk_shape(
    shape: Sequence[int], chunks: Union[int, Sequence[int], None] = None
) -> Tuple[int, ...]:
    """Resolve a chunk-shape spec against an array shape.

    ``chunks`` may be ``None`` (default :data:`DEFAULT_CHUNK` per axis), a
    single int applied to every axis, or a per-axis sequence.  Chunk edges
    are clipped to the array extent so a chunk never exceeds the array.
    """
    shape = tuple(int(n) for n in shape)
    if chunks is None:
        chunks = DEFAULT_CHUNK
    if isinstance(chunks, (int, np.integer)):
        chunks = (int(chunks),) * len(shape)
    chunks = tuple(int(c) for c in chunks)
    if len(chunks) != len(shape):
        raise ConfigurationError(
            f"chunk shape {chunks} does not match array rank {len(shape)}"
        )
    if any(c < 1 for c in chunks):
        raise ConfigurationError(f"chunk edges must be >= 1, got {chunks}")
    return tuple(min(c, n) for c, n in zip(chunks, shape))


@dataclass(frozen=True)
class ChunkGrid:
    """Tiling of ``shape`` by ``chunk_shape`` tiles (row-major flat order)."""

    shape: Tuple[int, ...]
    chunk_shape: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(
            self, "chunk_shape", normalize_chunk_shape(self.shape, self.chunk_shape)
        )

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        """Number of chunks along each axis."""
        return tuple(
            ceil_div(n, c) for n, c in zip(self.shape, self.chunk_shape)
        )

    @property
    def n_chunks(self) -> int:
        return math.prod(self.grid_shape)

    def __len__(self) -> int:
        return self.n_chunks

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_chunks))

    # ------------------------------------------------------------ per chunk
    def chunk_coords(self, index: int) -> Tuple[int, ...]:
        """Grid coordinates of a flat chunk index."""
        if not 0 <= index < self.n_chunks:
            raise IndexError(f"chunk {index} out of range [0, {self.n_chunks})")
        return tuple(
            int(c) for c in np.unravel_index(index, self.grid_shape)
        )

    def chunk_start(self, index: int) -> Tuple[int, ...]:
        """Array coordinates of a chunk's low corner."""
        return tuple(
            g * c for g, c in zip(self.chunk_coords(index), self.chunk_shape)
        )

    def chunk_shape_at(self, index: int) -> Tuple[int, ...]:
        """Actual shape of a chunk (edge chunks are truncated)."""
        start = self.chunk_start(index)
        return tuple(
            min(c, n - s)
            for c, n, s in zip(self.chunk_shape, self.shape, start)
        )

    def chunk_slices(self, index: int) -> Tuple[slice, ...]:
        """Index of a chunk's region in the full array."""
        start = self.chunk_start(index)
        extent = self.chunk_shape_at(index)
        return tuple(slice(s, s + e) for s, e in zip(start, extent))

    # ------------------------------------------------------------ hyperslabs
    def normalize_slab(self, slab: Slab) -> Tuple[slice, ...]:
        """Resolve a hyperslab spec into concrete unit-stride slices.

        Accepts per-axis ``slice`` objects, ``(start, stop)`` pairs, or
        ``None`` (whole axis).  Negative indices count from the end, as in
        numpy; steps other than 1 are rejected (chunked extraction is
        contiguous per axis).
        """
        slab = tuple(slab)
        if len(slab) != len(self.shape):
            raise ConfigurationError(
                f"slab rank {len(slab)} does not match array rank {len(self.shape)}"
            )
        out = []
        for spec, n in zip(slab, self.shape):
            if spec is None:
                spec = slice(None)
            elif not isinstance(spec, slice):
                start, stop = spec
                spec = slice(start, stop)
            if spec.step not in (None, 1):
                raise ConfigurationError(
                    f"slab steps must be 1, got step={spec.step}"
                )
            start, stop, _ = spec.indices(n)
            out.append(slice(start, max(start, stop)))
        return tuple(out)

    def chunks_for_slab(self, slab: Slab) -> List[int]:
        """Flat indices of every chunk intersecting a hyperslab, in
        row-major order (plain ints: a read touches few chunks, and numpy
        set-up would cost more than the walk)."""
        slab = self.normalize_slab(slab)
        ranges = [
            range(s.start // c, ceil_div(s.stop, c)) if s.stop > s.start else ()
            for s, c in zip(slab, self.chunk_shape)
        ]
        grid = self.grid_shape
        out = []
        for coords in itertools.product(*ranges):
            flat = 0
            for g, n in zip(coords, grid):
                flat = flat * n + g
            out.append(flat)
        return out


def grid_for(
    shape: Sequence[int], chunks: Union[int, Sequence[int], None] = None
) -> ChunkGrid:
    """Build the chunk grid for an array shape and a chunk-shape spec."""
    return ChunkGrid(tuple(int(n) for n in shape), normalize_chunk_shape(shape, chunks))

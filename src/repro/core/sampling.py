"""Uniform block-based data sampling (paper §VI-A).

Blocks of a fixed (power-of-two) size are picked on a regular grid whose
stride realizes the requested sample rate: for a d-dimensional input,
``rate = (block / stride)**d``.  The sampled stack captures both local
patterns (inside each block) and the global picture (blocks spread across
the whole domain), and is what all of QoZ's online analysis runs on.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import CompressionError, ConfigurationError
from repro.utils import is_pow2


def sampling_stride(block: int, rate: float, ndim: int) -> int:
    """Stride that realizes ``rate`` for the given block size/dimension."""
    if not 0.0 < rate <= 1.0:
        raise ConfigurationError(f"sample rate must be in (0, 1], got {rate}")
    return max(block, int(round(block / rate ** (1.0 / ndim))))


def effective_block_size(shape: Sequence[int], block: int) -> int:
    """Largest power-of-two block size that fits the smallest extent."""
    if not is_pow2(block):
        raise ConfigurationError(f"block size must be a power of two, got {block}")
    limit = min(shape)
    while block > limit:
        block //= 2
    return max(block, 2)


#: lower bound on the number of sampled blocks; with too few blocks the
#: selection/tuning estimates are noise (the paper's datasets are large
#: enough that the nominal rates always yield many blocks — small inputs
#: here must compensate with a denser stride)
MIN_BLOCKS = 8


def sample_blocks(
    data: np.ndarray, block: int, rate: float
) -> Tuple[np.ndarray, int]:
    """Extract a uniform stack of sample blocks.

    Returns ``(blocks, block_size)`` with ``blocks`` of shape
    ``(n_blocks, b, b, ...)`` in float64.  The block size may be shrunk
    (power of two) to fit small inputs; the stride is tightened when the
    nominal rate would produce fewer than :data:`MIN_BLOCKS` blocks.
    Derivation reads a lazily validated field only through this stack, so
    this is where its values are checked for finiteness.
    """
    b = effective_block_size(data.shape, block)
    stride = sampling_stride(b, rate, data.ndim)
    per_axis = int(np.ceil(MIN_BLOCKS ** (1.0 / data.ndim)))
    starts_per_axis = []
    for n in data.shape:
        span = max(n - b, 0)
        axis_stride = stride
        if span > 0:
            # shrink the stride until this axis contributes enough starts
            axis_stride = min(stride, max(b, -(-span // (per_axis - 1))
                                          if per_axis > 1 else stride))
        starts = np.arange(0, span + 1, max(axis_stride, 1))
        starts_per_axis.append(starts)
    grids = np.meshgrid(*starts_per_axis, indexing="ij")
    origins = np.stack([g.ravel() for g in grids], axis=1)
    # keep the online-analysis cost bounded: never sample more than ~30%
    # of the input (tiny inputs would otherwise be re-compressed many
    # times over during tuning)
    max_blocks = max(1, int(0.3 * data.size / float(b) ** data.ndim))
    if origins.shape[0] > max_blocks:
        keep = np.linspace(0, origins.shape[0] - 1, max_blocks).astype(int)
        origins = origins[np.unique(keep)]
    blocks = np.empty((origins.shape[0],) + (b,) * data.ndim, dtype=np.float64)
    for i, origin in enumerate(origins):
        sel = tuple(slice(int(o), int(o) + b) for o in origin)
        blocks[i] = data[sel]
    if not np.all(np.isfinite(blocks)):
        raise CompressionError("data contains non-finite values")
    return blocks, b

"""Block tiling and the block-wise linear-regression predictor (SZ2's
second predictor).

:func:`pad_to_blocks`, :func:`blockify` and :func:`unblockify` tile a
field into equal blocks; SZ2 and ZFP both use them.  Each block is fit
with a first-order polynomial ``f = c0 + sum_d c_d x_d`` by closed-form
least squares (the regular grid makes coordinate axes orthogonal, so
each slope is an independent projection).  Coefficients are stored as
float32 and both sides predict from the rounded values, so the
predictor is bit-identical across compression and decompression.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def pad_to_blocks(data: np.ndarray, block: int) -> np.ndarray:
    """Edge-pad (as float64) so every extent is a multiple of ``block``."""
    pads = [(0, (-n) % block) for n in data.shape]
    if not any(p[1] for p in pads):
        return np.asarray(data, dtype=np.float64)
    return np.pad(np.asarray(data, dtype=np.float64), pads, mode="edge")


def blockify(data: np.ndarray, block: int) -> np.ndarray:
    """Reshape (edge-padded) data into a (n_blocks, block**ndim) matrix.

    The input extents must be multiples of ``block`` (pad first).
    """
    nd = data.ndim
    for n in data.shape:
        if n % block:
            raise ValueError("blockify requires extents divisible by block")
    counts = [n // block for n in data.shape]
    # split each axis into (count, block) then bring the block axes last
    shape = []
    for c in counts:
        shape.extend([c, block])
    view = data.reshape(shape)
    perm = list(range(0, 2 * nd, 2)) + list(range(1, 2 * nd, 2))
    return view.transpose(perm).reshape(int(np.prod(counts)), block**nd)


def unblockify(
    blocks: np.ndarray, shape: Sequence[int], block: int
) -> np.ndarray:
    """Inverse of :func:`blockify`."""
    nd = len(shape)
    counts = [n // block for n in shape]
    view = blocks.reshape(counts + [block] * nd)
    perm = []
    for d in range(nd):
        perm.extend([d, nd + d])
    return view.transpose(perm).reshape(tuple(shape))


def _coordinate_basis(block: int, ndim: int) -> np.ndarray:
    """Centered coordinates per axis, flattened block order: (ndim, b**nd)."""
    axes = [np.arange(block, dtype=np.float64) - (block - 1) / 2.0] * ndim
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids])


def fit_plane(blocks: np.ndarray, block: int, ndim: int) -> np.ndarray:
    """Least-squares first-order fit per block.

    ``blocks``: (nb, block**ndim).  Returns float32 coefficients
    (nb, ndim + 1) as ``[c0, c1, ..., c_ndim]`` about centered coordinates.
    """
    basis = _coordinate_basis(block, ndim)  # (ndim, m)
    denom = (basis * basis).sum(axis=1)  # per-axis Σ x²
    c0 = blocks.mean(axis=1)
    slopes = blocks @ basis.T / denom  # (nb, ndim)
    return np.concatenate([c0[:, None], slopes], axis=1).astype(np.float32)


def predict_plane(coeffs: np.ndarray, block: int, ndim: int) -> np.ndarray:
    """Evaluate fitted planes: (nb, block**ndim) predictions (float64)."""
    basis = _coordinate_basis(block, ndim)
    c = coeffs.astype(np.float64)
    return c[:, :1] + c[:, 1:] @ basis


def regression_estimate_error(
    blocks: np.ndarray, block: int, ndim: int
) -> np.ndarray:
    """Per-block mean |residual| of the plane fit (selection estimate)."""
    coeffs = fit_plane(blocks, block, ndim)
    pred = predict_plane(coeffs, block, ndim)
    return np.abs(blocks - pred).mean(axis=1)

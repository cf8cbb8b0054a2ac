"""Linear-scale quantizer with strict error-bound guarantee.

Residuals ``r = value - prediction`` are mapped to integer bins of width
``2 * eb`` so that the reconstruction ``pred + 2 * eb * q`` is within ``eb``
of the original.  Bins are offset by ``radius`` into non-negative codes;
code 0 is reserved for *outliers* — points whose residual overflows the bin
range **or** whose reconstruction would violate the bound after floating
round-off.  Outlier values are stored exactly in a side stream, which makes
the bound unconditional (paper Fig. 7).

All operations are vectorized over whole prediction passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import DecompressionError
from repro.utils import index_dtype

#: default number of bins on each side of zero (SZ uses 2^15)
DEFAULT_RADIUS = 32768
#: reserved quantization code marking an exactly-stored point
OUTLIER_CODE = 0


def code_dtype(radius: int) -> np.dtype:
    """The dtype of a quantizer's codes: the narrowest that holds the
    largest, ``2 * radius - 1`` (uint16 at :data:`DEFAULT_RADIUS`)."""
    return index_dtype(2 * radius - 1)


def quantize_block(
    values: np.ndarray,
    preds: np.ndarray,
    eb: float,
    radius: int = DEFAULT_RADIUS,
    cast_dtype=np.float64,
):
    """Quantize one prediction pass.

    Returns ``(codes, recon, outlier_values)``: non-negative codes of
    :func:`code_dtype` (0 = outlier), the reconstructed values (exact at
    outliers), and the outlier values in scan order.

    ``cast_dtype`` is the dtype the decompressed array will finally be
    cast to; the bound is verified against the *cast* reconstruction so
    the guarantee survives float64 -> float32 round-off.
    """
    values = np.asarray(values, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    inv = 1.0 / (2.0 * eb)
    q = values - preds
    np.multiply(q, inv, out=q)
    np.rint(q, out=q)
    recon = np.multiply(q, 2.0 * eb)
    recon += preds
    if np.dtype(cast_dtype) == np.float64:
        err = values - recon  # already what the user receives
    else:
        # float64 - float32 promotes the cast value exactly: the same bits
        # as a float64 copy of the cast reconstruction, one temporary less
        err = values - recon.astype(cast_dtype)
    np.abs(err, out=err)
    ok = err <= eb
    np.abs(q, out=err)  # reuse the scratch for |q|
    ok &= err < radius
    q += radius  # exact for every in-range bin
    if ok.all():
        # the usual pass: nothing to store exactly, nothing to patch
        return q.astype(code_dtype(radius)), recon, np.empty(0, dtype=np.float64)
    bad = ~ok
    q[bad] = OUTLIER_CODE  # before the cast: only in-range bins are cast
    outliers = values[bad]
    recon[bad] = outliers
    return q.astype(code_dtype(radius)), recon, outliers


def reconstruct_block(
    codes: np.ndarray,
    preds: np.ndarray,
    eb: float,
    outliers: np.ndarray,
    radius: int = DEFAULT_RADIUS,
) -> np.ndarray:
    """Inverse of :func:`quantize_block` for one pass.

    ``outliers`` must contain exactly the values for the pass's outlier
    codes, in scan order.
    """
    codes = np.asarray(codes).ravel()
    decoder = LinearQuantizer(radius, codes=codes, outliers=outliers)
    return decoder.dequantize(codes.size, preds, eb)


@dataclass
class LinearQuantizer:
    """Stateful quantizer accumulating codes/outliers across passes.

    Codes come out as :func:`code_dtype` of ``radius``; the decoder takes
    any non-negative integer array (int64 included) and converts one
    pass's slice at a time, never the whole stream.

    Compression side::

        q = LinearQuantizer(radius)
        recon = q.quantize(values, preds, eb)   # per pass
        codes, outliers = q.harvest()

    Decompression side::

        q = LinearQuantizer(radius, codes=codes, outliers=outliers)
        recon = q.dequantize(count, preds, eb)  # per pass, same order
    """

    radius: int = DEFAULT_RADIUS
    codes: np.ndarray | None = None
    outliers: np.ndarray | None = None
    cast_dtype: np.dtype = np.float64
    _code_chunks: List[np.ndarray] = field(default_factory=list)
    _outlier_chunks: List[np.ndarray] = field(default_factory=list)
    _code_pos: int = 0

    def __post_init__(self) -> None:
        """Decode set-up: the facts of the stream, taken once, not per pass."""
        if self.codes is None:
            return
        self.codes = np.asarray(self.codes)
        self._outlier_at = np.flatnonzero(self.codes == OUTLIER_CODE)
        if self._outlier_at.size > self.outliers.size:
            raise DecompressionError("outlier stream exhausted")

    # -------------------------------------------------------------- compress
    def quantize(self, values: np.ndarray, preds: np.ndarray, eb: float):
        """Quantize one pass; returns reconstructed values (same shape)."""
        codes, recon, outliers = quantize_block(
            values, preds, eb, self.radius, self.cast_dtype
        )
        self._code_chunks.append(codes.ravel())
        if outliers.size:
            self._outlier_chunks.append(outliers)
        return recon

    def harvest(self):
        """All codes and outliers accumulated so far, concatenated."""
        codes = (
            np.concatenate(self._code_chunks)
            if self._code_chunks
            else np.zeros(0, dtype=code_dtype(self.radius))
        )
        outliers = (
            np.concatenate(self._outlier_chunks)
            if self._outlier_chunks
            else np.zeros(0, dtype=np.float64)
        )
        return codes, outliers

    # ------------------------------------------------------------ decompress
    def dequantize(self, count: int, preds: np.ndarray, eb: float) -> np.ndarray:
        """Reconstruct one pass of ``count`` points from the stored streams.

        Codes/outliers are consumed in the same order quantize() produced
        them; the result has the shape of ``preds``.
        """
        preds = np.asarray(preds, dtype=np.float64)
        start, stop = self._code_pos, self._code_pos + count
        # the centred bins are small integers, exact in float64
        flat = self.codes[start:stop].astype(np.float64)
        flat -= self.radius
        flat *= 2.0 * eb
        if flat.size != count:
            raise DecompressionError("quantization code stream exhausted")
        self._code_pos = stop
        recon = flat.reshape(preds.shape)
        recon += preds
        if self._outlier_at.size:  # stored exactly, in scan order
            lo, hi = np.searchsorted(self._outlier_at, (start, stop))
            flat[self._outlier_at[lo:hi] - start] = self.outliers[lo:hi]
        return recon

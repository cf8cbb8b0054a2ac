"""SZ2.1: block-wise Lorenzo + linear-regression compression (Liang et al.,
IEEE BigData 2018) — the classic prediction-based baseline.

Per block (6^3 in 3-D, 12^2 in 2-D, 32 in 1-D) the codec picks whichever of
the two predictors has the smaller estimated L1 residual: the first-order
Lorenzo extrapolator (always predicts from immediate reconstructed
neighbors — no long-range artifacts, which is why the paper's Fig. 4 shows
SZ2 errors looking cleaner than SZ3's at the same bound) or a least-squares
plane fit.  Residuals go through the shared linear quantizer + entropy
stage.  Lorenzo blocks are compressed/decompressed with the wavefront sweep
from :mod:`repro.compressors.lorenzo`.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.compressors.base import Compressor, register
from repro.compressors.lorenzo import (
    lorenzo_estimate_error,
    pad_low,
    predict_wavefront,
    scatter_wavefront,
    wavefronts,
)
from repro.compressors.regression import (
    blockify,
    fit_plane,
    pad_to_blocks,
    predict_plane,
    unblockify,
)
from repro.core.header import pack_sections, unpack_sections
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.codec import decode_symbol_stream, encode_symbol_stream
from repro.encoding.lossless import (
    compress_bytes,
    compress_floats_lossless,
    decompress_bytes,
    decompress_floats_lossless,
)
from repro.errors import CompressionError, DecompressionError
from repro.quantize.linear import DEFAULT_RADIUS, LinearQuantizer

#: SZ2 block edge per dimensionality
BLOCK_SIZES = {1: 32, 2: 12, 3: 6}


@register
class SZ2(Compressor):
    """SZ2.1 baseline (Lorenzo + regression + quantization + Huffman).

    Takes no parameters: the block edge is :data:`BLOCK_SIZES`' entry for
    the field's dimensionality and the quantizer radius
    :data:`~repro.quantize.linear.DEFAULT_RADIUS`.
    """

    name = "sz2"
    codec_id = 3

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _choose_predictors(
        padded: np.ndarray, block: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(per-block use-regression flags, per-point regression mask)."""
        nd = padded.ndim
        blocks = blockify(padded, block)
        if nd == 1:
            use_reg = np.zeros(blocks.shape[0], dtype=bool)
        else:
            lor = blockify(lorenzo_estimate_error(padded), block).mean(axis=1)
            coeffs = fit_plane(blocks, block, nd)
            reg = np.abs(blocks - predict_plane(coeffs, block, nd)).mean(axis=1)
            use_reg = reg < lor
        m = block**nd
        point_mask = unblockify(
            np.repeat(use_reg[:, None], m, axis=1), padded.shape, block
        ).astype(bool)
        return use_reg, point_mask

    # ----------------------------------------------------------- compress
    def _compress(self, data: np.ndarray, eb: float) -> bytes:
        if data.ndim > 3:
            raise CompressionError(
                "SZ2's Lorenzo predictor supports 1-3 dimensions "
                f"(got {data.ndim}); use SZ3/QoZ for 4-D data"
            )
        block = BLOCK_SIZES[data.ndim]
        padded = pad_to_blocks(data, block)
        nd = padded.ndim
        use_reg, point_mask = self._choose_predictors(padded, block)
        blocks = blockify(padded, block)

        quantizer = LinearQuantizer(radius=DEFAULT_RADIUS, cast_dtype=data.dtype)
        recon_pad = pad_low(padded.shape)
        inner = tuple(slice(1, None) for _ in range(nd))

        coeffs = np.zeros((0, nd + 1), dtype=np.float32)
        if use_reg.any():
            coeffs = fit_plane(blocks[use_reg], block, nd)
            pred = predict_plane(coeffs, block, nd)
            recon_blocks = quantizer.quantize(blocks[use_reg], pred, eb)
            full = np.zeros_like(blocks)
            full[use_reg] = recon_blocks
            recon_arr = unblockify(full, padded.shape, block)
            recon_pad[inner][point_mask] = recon_arr[point_mask]

        coords = np.argwhere(~point_mask)
        for front in wavefronts(coords):
            pred = predict_wavefront(recon_pad, front)
            vals = padded[tuple(front.T)]
            recon = quantizer.quantize(vals, pred, eb)
            scatter_wavefront(recon_pad, front, recon)

        codes, outliers = quantizer.harvest()

        writer = BitWriter()
        writer.write_uint(block, 8)
        writer.write_uint(DEFAULT_RADIUS, 32)
        writer.write_uint(nd, 8)
        for n in padded.shape:
            writer.write_uint(n, 64)
        writer.write_array(use_reg.astype(np.uint64), 1)
        sections = [
            writer.getvalue(),
            compress_bytes(coeffs.astype("<f4", copy=False).tobytes()),
            encode_symbol_stream(codes),
            compress_floats_lossless(outliers.astype(data.dtype)),
        ]
        return pack_sections(sections)

    # --------------------------------------------------------- decompress
    def _decompress(self, payload: bytes, header) -> np.ndarray:
        sections = unpack_sections(payload)
        if len(sections) != 4:
            raise DecompressionError("SZ2 payload must have 4 sections")
        reader = BitReader(sections[0])
        block = reader.read_uint(8)
        radius = reader.read_uint(32)
        nd = reader.read_uint(8)
        padded_shape = tuple(reader.read_uint(64) for _ in range(nd))
        # the padded payload shape must be what padding the declared
        # header shape produces, or the final crop silently returns an
        # array that contradicts the header
        if block == 0 or nd != len(header.shape) or padded_shape != tuple(
            n + (-n) % block for n in header.shape
        ):
            raise DecompressionError("SZ2 payload shape contradicts header")
        n_blocks = math.prod(n // block for n in padded_shape)
        use_reg = reader.read_array(n_blocks, 1).astype(bool)
        n_points = math.prod(padded_shape)
        coeff_len = int(use_reg.sum()) * 4 * (nd + 1)
        coeff_bytes = decompress_bytes(sections[1], max_size=coeff_len)
        if len(coeff_bytes) != coeff_len:
            raise DecompressionError(
                "SZ2 regression coefficients contradict the block flags"
            )
        coeffs = np.frombuffer(coeff_bytes, dtype="<f4").reshape(-1, nd + 1)
        codes = decode_symbol_stream(sections[2], max_size=n_points)
        outliers = decompress_floats_lossless(
            sections[3], max_values=n_points
        ).astype(np.float64)
        eb = header.error_bound

        quantizer = LinearQuantizer(radius=radius, codes=codes, outliers=outliers)
        m = block**nd
        point_mask = unblockify(
            np.repeat(use_reg[:, None], m, axis=1), padded_shape, block
        ).astype(bool)
        recon_pad = pad_low(padded_shape)
        inner = tuple(slice(1, None) for _ in range(nd))

        if use_reg.any():
            pred = predict_plane(coeffs, block, nd)
            recon_blocks = quantizer.dequantize(pred.size, pred, eb)
            full = np.zeros((n_blocks, m), dtype=np.float64)
            full[use_reg] = recon_blocks
            recon_arr = unblockify(full, padded_shape, block)
            recon_pad[inner][point_mask] = recon_arr[point_mask]

        coords = np.argwhere(~point_mask)
        for front in wavefronts(coords):
            pred = predict_wavefront(recon_pad, front)
            recon = quantizer.dequantize(front.shape[0], pred, eb)
            scatter_wavefront(recon_pad, front, recon)

        recon = recon_pad[inner]
        crop = tuple(slice(0, n) for n in header.shape)
        return recon[crop]

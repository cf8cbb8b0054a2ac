"""Serialization shared by the interpolation codecs (SZ3 and QoZ).

The payload records everything the decompressor needs to replay the pass
traversal: anchor stride, quantizer radius, and per-level (method, order,
error bound); then three data sections — losslessly-coded known points
(anchors or root), the entropy-coded quantization indices, and the exact
outlier values.  The fixed header in front of it is
:mod:`repro.core.header`'s; a reader opens every stream, plain or
chunked, through :class:`repro.chunked.api.ChunkedFile`.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.core.engine import InterpPlan, assemble_plan, interp_decompress
from repro.core.header import pack_sections, unpack_sections
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.codec import decode_symbol_stream, encode_symbol_stream
from repro.encoding.lossless import (
    compress_floats_lossless,
    decompress_floats_lossless,
)
from repro.errors import DecompressionError


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _bits_float(u: int) -> float:
    return float(np.uint64(u).view(np.float64))


def pack_interp_payload(
    plan: InterpPlan,
    max_level: int,
    known: np.ndarray,
    codes: np.ndarray,
    outliers: np.ndarray,
    dtype: np.dtype,
) -> bytes:
    """Serialize an interpolation compression result."""
    writer = BitWriter()
    writer.write_uint(plan.anchor_stride, 32)
    writer.write_uint(plan.radius, 32)
    writer.write_uint(max_level, 8)
    for level in range(1, max_level + 1):
        lp = plan.level_plan(level)
        writer.write_uint(lp.method, 1)
        writer.write_uint(lp.order_id, 1)
        writer.write_uint(_float_bits(lp.eb), 64)
    params = writer.getvalue()
    sections = [
        params,
        compress_floats_lossless(known.ravel().astype(dtype)),
        encode_symbol_stream(codes),
        compress_floats_lossless(outliers.astype(dtype)),
    ]
    return pack_sections(sections)


def unpack_interp_payload(
    payload: bytes, dtype: np.dtype, max_points: int | None = None
) -> Tuple[InterpPlan, int, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_interp_payload`.

    Returns ``(plan, max_level, known, codes, outliers)``.  Callers that
    know the reconstructed field's element count should pass it as
    ``max_points``: every data section (known points, quant indices,
    outliers) holds at most that many values, and the bound stops a
    forged section from sizing an allocation beyond the field itself.
    """
    sections = unpack_sections(payload)
    if len(sections) != 4:
        raise DecompressionError("interpolation payload must have 4 sections")
    reader = BitReader(sections[0])
    anchor_stride = reader.read_uint(32)
    radius = reader.read_uint(32)
    max_level = reader.read_uint(8)
    if max_level < 1:
        raise DecompressionError("interpolation payload plans no level")
    ebs: Dict[int, float] = {}
    interpolators: Dict[int, Tuple[int, int]] = {}
    for level in range(1, max_level + 1):
        interpolators[level] = reader.read_uint(1), reader.read_uint(1)
        ebs[level] = _bits_float(reader.read_uint(64))
    plan = assemble_plan(ebs, interpolators, anchor_stride, radius, dtype)
    known = decompress_floats_lossless(
        sections[1], max_values=max_points
    ).astype(np.float64)
    codes = decode_symbol_stream(sections[2], max_size=max_points)
    outliers = decompress_floats_lossless(
        sections[3], max_values=max_points
    ).astype(np.float64)
    return plan, max_level, known, codes, outliers


def decode_interp_payload(payload: bytes, header) -> np.ndarray:
    """The float64 field an interpolation payload holds; ``header`` is the
    stream's parsed :class:`~repro.core.header.StreamHeader`."""
    plan, _top, known, codes, outliers = unpack_interp_payload(
        payload, header.dtype, max_points=math.prod(header.shape)
    )
    return interp_decompress(header.shape, plan, codes, outliers, known)

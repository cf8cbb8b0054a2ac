"""Serialization shared by the interpolation codecs (SZ3 and QoZ).

The payload records everything the decompressor needs to replay the pass
traversal: anchor stride, quantizer radius, and per-level (method, order,
error bound); then three data sections — losslessly-coded known points
(anchors or root), the entropy-coded quantization indices, and the exact
outlier values.

:func:`describe_stream` is the generic inspection entry point over *any*
repro stream (plain or chunked container) — it reads only headers and the
chunk index, never payloads, and backs ``python -m repro info``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.engine import InterpPlan, LevelPlan
from repro.core.header import pack_sections, parse_header, unpack_sections
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.codec import decode_symbol_stream, encode_symbol_stream
from repro.encoding.lossless import (
    compress_floats_lossless,
    decompress_floats_lossless,
)
from repro.errors import DecompressionError


def describe_stream(blob: bytes) -> Dict:
    """Header-level summary of any repro stream, without decoding payloads.

    For a chunked container the summary includes the chunk grid and
    per-chunk byte statistics (parsed from the index alone).
    """
    header, _ = parse_header(blob)
    if header.is_chunked:
        from repro.chunked import ChunkedFile

        with ChunkedFile(blob) as f:
            info = f.describe()
        # size the actual blob, not just what the chunk index implies
        info["compressed_bytes"] = len(blob)
        info["compression_ratio"] = info["raw_bytes"] / max(1, len(blob))
        return info
    return summarize_header(header, len(blob))


def summarize_header(header, compressed_bytes: int) -> Dict:
    """Summary of a plain stream from its parsed header + total size alone.

    Needs no payload bytes, so callers with a file can pass its first
    ``HEADER_PROBE_BYTES`` through :func:`repro.core.header.parse_header`
    and the on-disk size, never reading the stream body.
    """
    from repro.compressors.base import codec_name_for_id

    try:
        codec = codec_name_for_id(header.codec_id)
    except KeyError:
        codec = f"unknown (id {header.codec_id})"
    raw = int(np.prod(header.shape)) * header.dtype.itemsize
    return {
        "format": f"plain stream (RPZ1 v{header.version})",
        "codec": codec,
        "dtype": str(header.dtype),
        "shape": header.shape,
        "error_bound": header.error_bound,
        "compressed_bytes": compressed_bytes,
        "raw_bytes": raw,
        "compression_ratio": raw / max(1, compressed_bytes),
    }


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
    levels = {}
    for level in range(1, max_level + 1):
        method = reader.read_uint(1)
        order_id = reader.read_uint(1)
        eb = _bits_float(reader.read_uint(64))
        levels[level] = LevelPlan(eb=eb, method=method, order_id=order_id)
    plan = InterpPlan(
        levels=levels, anchor_stride=anchor_stride, radius=radius, cast_dtype=dtype
    )
    known = decompress_floats_lossless(
        sections[1], max_values=max_points
    ).astype(np.float64)
    codes = decode_symbol_stream(sections[2], max_size=max_points)
    outliers = decompress_floats_lossless(
        sections[3], max_values=max_points
    ).astype(np.float64)
    return plan, max_level, known, codes, outliers

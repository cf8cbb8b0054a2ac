"""Lossless coding of float arrays and raw bytes.

Anchor points in QoZ must be stored exactly.  Scientific fields are smooth,
so adjacent anchors share high-order bits: we XOR-delta the raw IEEE bit
patterns, byte-shuffle the deltas into planes, and entropy-code the result
with the shared symbol-stream codec (RLE + Huffman).  Falls back to raw
storage when the model does not help (e.g. noise).
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.codec import decode_symbol_stream, encode_symbol_stream
from repro.errors import DecompressionError
from repro.utils import dtype_code, dtype_from_code

_RAW, _CODED = 0, 1

#: fixed bytes of any symbol stream (64+32+32+1 header bits, 32+32+1 of
#: table preamble): coding an input this short (one anchor) cannot beat raw
_MIN_CODED_BYTES = 25


def compress_bytes(data: bytes) -> bytes:
    """Entropy-code a byte string (raw fallback when incompressible)."""
    if len(data) == 0:
        return bytes([0, _RAW])
    if len(data) > _MIN_CODED_BYTES:
        coded = encode_symbol_stream(np.frombuffer(data, dtype=np.uint8))
        if len(coded) < len(data):
            return bytes([1, _CODED]) + coded
    return bytes([1, _RAW]) + data


def decompress_bytes(blob: bytes, max_size: int | None = None) -> bytes:
    """Inverse of :func:`compress_bytes`.

    ``max_size`` bounds the decoded byte count when the caller knows it
    (forwarded to :func:`decode_symbol_stream`'s bomb guard).
    """
    if len(blob) < 2:
        raise DecompressionError("truncated lossless byte stream")
    nonempty, mode = blob[0], blob[1]
    if not nonempty:
        return b""
    if mode == _RAW:
        return blob[2:]
    if mode == _CODED:
        decoded = decode_symbol_stream(blob[2:], max_size=max_size)
        return decoded.astype(np.uint8, copy=False).tobytes()
    raise DecompressionError(f"unknown lossless mode {mode}")


def compress_floats_lossless(values: np.ndarray) -> bytes:
    """Exactly encode a 1-D float array (XOR-delta + byte shuffle + codec)."""
    values = np.ascontiguousarray(values)
    uint_t = np.uint32 if values.dtype == np.float32 else np.uint64
    bits = values.view(uint_t)
    delta = np.empty_like(bits)
    delta[0:1] = bits[0:1]
    np.bitwise_xor(bits[1:], bits[:-1], out=delta[1:])
    itemsize = values.dtype.itemsize
    planes = delta.view(np.uint8).reshape(values.size, itemsize).T
    payload = compress_bytes(np.ascontiguousarray(planes).tobytes())
    writer = BitWriter()
    writer.write_uint(values.size, 64)
    writer.write_uint(dtype_code(values.dtype), 8)
    writer.write_uint(len(payload), 64)
    header = writer.getvalue()
    return header + payload


def decompress_floats_lossless(
    blob: bytes, max_values: int | None = None
) -> np.ndarray:
    """Inverse of :func:`compress_floats_lossless`.

    ``max_values`` is the caller's bound on the element count (e.g. the
    size of the field the values belong to); the declared count is
    checked against it before any decode allocation.
    """
    reader = BitReader(blob[:17])
    n = reader.read_uint(64)
    dtype = dtype_from_code(reader.read_uint(8))
    if max_values is not None and n > max_values:
        raise DecompressionError(
            f"lossless float stream declares {n} values, "
            f"caller expects at most {max_values}"
        )
    payload_len = reader.read_uint(64)
    if payload_len > len(blob) - 17:
        raise DecompressionError("truncated lossless float stream")
    raw = decompress_bytes(
        blob[17 : 17 + payload_len], max_size=n * dtype.itemsize
    )
    itemsize = dtype.itemsize
    if len(raw) != n * itemsize:
        raise DecompressionError(
            f"lossless float payload holds {len(raw)} bytes, "
            f"expected {n * itemsize}"
        )
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(itemsize, n)
    delta = np.ascontiguousarray(planes.T).reshape(n * itemsize)
    uint_t = np.uint32 if dtype == np.float32 else np.uint64
    bits = delta.view(uint_t)
    out = np.bitwise_xor.accumulate(bits)
    return out.view(dtype)

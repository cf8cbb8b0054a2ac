"""The composed symbol-stream codec used for quantization indices.

Pipeline: alphabet remap (offset to the observed [min, max] range) ->
zero-run tokenization when one symbol dominates (:mod:`repro.encoding.rle`)
-> canonical Huffman.  Also provides a fast Shannon-entropy size estimator used by QoZ's
online tuning, which must predict the bit rate without building streams.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.huffman import HuffmanCode
from repro.encoding.rle import (
    RUN_CLASSES,
    detokenize_runs,
    run_token_histogram,
    run_token_widths,
    tokenize_runs,
)
from repro.errors import DecompressionError

#: apply run tokenization when the dominant symbol covers this fraction
RLE_DOMINANCE_THRESHOLD = 0.25


def encode_symbol_stream(codes: np.ndarray) -> bytes:
    """Encode a non-negative int array into a self-describing byte string."""
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    writer = BitWriter()
    writer.write_uint(codes.size, 64)
    if codes.size == 0:
        return writer.getvalue()
    lo = int(codes.min())
    if lo < 0:
        raise ValueError("symbol codes must be non-negative")
    syms = codes - lo
    # the one histogram: alphabet extent, dominant symbol and (with the run
    # classes appended) the Huffman frequencies all come from it
    counts = np.bincount(syms)
    alphabet = counts.size
    dom = int(np.argmax(counts))
    rle = counts[dom] >= RLE_DOMINANCE_THRESHOLD * codes.size
    writer.write_uint(lo, 32)
    writer.write_uint(alphabet, 32)
    writer.write_uint(1 if rle else 0, 1)
    if rle:
        writer.write_uint(dom, 32)
        syms, extra_vals, extra_widths = tokenize_runs(syms, dom, alphabet)
        writer.write_uint(syms.size, 64)
        counts[dom] = 0  # literal tokens are the non-dominant symbols
        runs = np.bincount(extra_widths, minlength=RUN_CLASSES)
        counts = np.concatenate([counts, runs])
    code = HuffmanCode.from_frequencies(counts)
    code.serialize(writer)
    code.encode(syms, writer)
    if rle:
        writer.write_array(extra_vals, extra_widths)
    return writer.getvalue()


def decode_symbol_stream(blob: bytes, max_size: int | None = None) -> np.ndarray:
    """Inverse of :func:`encode_symbol_stream`.

    ``max_size`` is the caller's upper bound on how many symbols the
    stream may legitimately hold (e.g. the element count of the field
    being reconstructed).  Run-length tokens let a tiny forged stream
    declare an arbitrarily large count, so callers that know a bound
    should always pass it — the declared count is then rejected *before*
    it sizes any allocation.
    """
    reader = BitReader(blob)
    n = reader.read_uint(64)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if max_size is not None and n > max_size:
        raise DecompressionError(
            f"stream declares {n} symbols, caller expects at most {max_size}"
        )
    lo = reader.read_uint(32)
    alphabet = reader.read_uint(32)
    rle = reader.read_uint(1)
    # every non-run symbol costs >= 1 payload bit, so without run tokens
    # a declared count beyond the stream length is corrupt — reject it
    # before sizing any output allocation off it
    if not rle and n > reader.remaining:
        raise DecompressionError("symbol count exceeds stream length")
    if rle:
        dom = reader.read_uint(32)
        n_tokens = reader.read_uint(64)
        if n_tokens > n:
            raise DecompressionError(
                "token count exceeds declared symbol count"
            )
        code = HuffmanCode.deserialize(reader, alphabet + RUN_CLASSES)
        tokens = code.decode(reader, n_tokens)
        widths = run_token_widths(tokens, alphabet)
        extra_vals = reader.read_varwidth_array(widths)
        syms = detokenize_runs(
            tokens, extra_vals, dom, alphabet, expected_size=n
        )
    else:
        code = HuffmanCode.deserialize(reader, alphabet)
        syms = code.decode(reader, n)
    if syms.size != n:
        raise DecompressionError(
            f"symbol stream decoded to {syms.size} symbols, expected {n}"
        )
    syms += lo  # in-place: syms is freshly allocated by the decoder
    return syms


def shannon_bits(freqs: np.ndarray) -> float:
    """Shannon information content (bits) of a histogram."""
    freqs = freqs[freqs > 0].astype(np.float64)
    total = freqs.sum()
    if total == 0:
        return 0.0
    p = freqs / total
    return float(-(freqs * np.log2(p)).sum())


def estimate_stream_bits(codes: np.ndarray) -> float:
    """Predict the encoded size of ``codes`` in bits without encoding.

    Scores the token histogram with its Shannon entropy plus the run extra
    bits plus an approximate table cost.  The histogram comes straight
    from the run-length decomposition (:func:`run_token_histogram`) — the
    token stream itself is never materialized, because QoZ's (alpha, beta)
    auto-tuning calls this for every candidate trial.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    if codes.size == 0:
        return 0.0
    lo = int(codes.min())
    syms = codes - lo
    counts = np.bincount(syms)
    dom = int(np.argmax(counts))
    header = 64 + 32 + 32 + 1
    if counts[dom] >= RLE_DOMINANCE_THRESHOLD * codes.size:
        tok_counts, extra_bits = run_token_histogram(syms, dom, counts)
        payload = shannon_bits(tok_counts) + float(extra_bits)
        table = 38 * int(np.count_nonzero(tok_counts))
        return header + 96 + payload + table
    payload = shannon_bits(counts)
    table = 38 * int(np.count_nonzero(counts))
    return header + payload + table

"""Tests for the composed symbol-stream codec (remap + RLE + Huffman)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.encoding.bitstream import BitReader
from repro.encoding.codec import (
    RLE_DOMINANCE_THRESHOLD,
    decode_symbol_stream,
    encode_symbol_stream,
    estimate_stream_bits,
    shannon_bits,
)
from repro.errors import DecompressionError


class TestSymbolStream:
    def test_empty(self):
        blob = encode_symbol_stream(np.zeros(0, dtype=np.int64))
        assert decode_symbol_stream(blob).size == 0

    def test_roundtrip_quantization_like_stream(self, rng):
        # typical quant indices: concentrated around a large offset (radius)
        codes = 32768 + np.clip(
            np.rint(rng.standard_normal(20000) * 2), -20, 20
        ).astype(np.int64)
        blob = encode_symbol_stream(codes)
        np.testing.assert_array_equal(decode_symbol_stream(blob), codes)

    def test_run_heavy_stream_compresses_below_half_bit(self, rng):
        codes = np.full(50000, 100, dtype=np.int64)
        idx = rng.choice(50000, size=500, replace=False)
        codes[idx] = rng.integers(90, 110, size=500)
        blob = encode_symbol_stream(codes)
        np.testing.assert_array_equal(decode_symbol_stream(blob), codes)
        assert len(blob) * 8 / codes.size < 0.5  # needs RLE to get here

    def test_negative_codes_rejected(self):
        with pytest.raises(ValueError):
            encode_symbol_stream(np.array([-1, 2], dtype=np.int64))

    def test_single_element(self):
        blob = encode_symbol_stream(np.array([12345], dtype=np.int64))
        np.testing.assert_array_equal(decode_symbol_stream(blob), [12345])

    def test_constant_stream(self):
        codes = np.full(100000, 65535, dtype=np.int64)
        blob = encode_symbol_stream(codes)
        np.testing.assert_array_equal(decode_symbol_stream(blob), codes)
        assert len(blob) < 200

    def test_offset_remap_keeps_alphabet_small(self):
        codes = np.array([1000000, 1000001, 1000002] * 100, dtype=np.int64)
        blob = encode_symbol_stream(codes)
        np.testing.assert_array_equal(decode_symbol_stream(blob), codes)
        assert len(blob) < 400


class TestForgedCounts:
    """A forged count is refused before it sizes anything: no Huffman
    table is built and no token decoded, so the traced peak stays below
    the stream's own size (with the check removed, these ~16 KB and
    ~22 KB streams trace ~0.2 MB and ~7 MB: a table, then the tokens)."""

    @staticmethod
    def forge_count(blob, n):
        assert 0 < n < 2**64
        return n.to_bytes(8, "big") + blob[8:]  # the leading u64 count

    @staticmethod
    def uses_runs(blob):
        reader = BitReader(blob)
        for width in (64, 32, 32):  # count, offset, alphabet
            reader.read_uint(width)
        return bool(reader.read_uint(1))

    @staticmethod
    def refused_peak(blob, **kwargs):
        tracemalloc.start()
        try:
            with pytest.raises(DecompressionError, match="exceeds"):
                decode_symbol_stream(blob, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_count_past_the_stream_length(self, rng):
        # without run tokens every symbol costs at least one bit
        blob = encode_symbol_stream(rng.integers(0, 200, 1 << 14))
        assert not self.uses_runs(blob)
        for n in (len(blob) * 8 + 1, 2**62):
            assert self.refused_peak(self.forge_count(blob, n)) < len(blob)

    def test_a_token_count_past_the_symbol_count(self, rng):
        # every token yields a symbol; the caller's max_size bounds n, so
        # n_tokens <= n is what bounds the token decode
        codes = rng.integers(0, 16, 1 << 16)
        codes[rng.random(codes.size) < 0.6] = 7
        blob = encode_symbol_stream(codes)
        assert self.uses_runs(blob)
        forged = self.forge_count(blob, 1)
        assert self.refused_peak(forged, max_size=1) < len(blob)


class TestEstimate:
    def test_shannon_bits_uniform(self):
        assert shannon_bits(np.array([8, 8])) == pytest.approx(16.0)

    def test_shannon_bits_empty(self):
        assert shannon_bits(np.zeros(3, dtype=np.int64)) == 0.0

    def test_estimate_tracks_actual_size(self, rng):
        for dominance in (0.0, 0.5, 0.95):
            codes = rng.integers(0, 64, size=30000).astype(np.int64)
            mask = rng.random(30000) < dominance
            codes[mask] = 32
            actual = len(encode_symbol_stream(codes)) * 8
            est = estimate_stream_bits(codes)
            assert 0.6 * actual <= est <= 1.4 * actual + 512

    def test_estimate_empty(self):
        assert estimate_stream_bits(np.zeros(0, dtype=np.int64)) == 0.0

    def test_histogram_estimator_matches_materialized_tokens(self, rng):
        """The repeat-free estimator must score the *identical* histogram
        the tokenizer would produce — QoZ tuning decisions (and therefore
        output bytes) hinge on bit-for-bit equal trial scores."""
        from repro.encoding.codec import shannon_bits
        from repro.encoding.rle import run_token_histogram, tokenize_runs

        for dominance in (0.3, 0.8, 0.99):
            syms = rng.integers(0, 40, size=50000).astype(np.int64)
            syms[rng.random(50000) < dominance] = 7
            alphabet = int(syms.max()) + 1
            tokens, _vals, widths = tokenize_runs(syms, 7, alphabet)
            freqs, extra_bits = run_token_histogram(syms, 7)
            tok_counts = np.bincount(tokens)
            assert extra_bits == int(widths.astype(np.int64).sum())
            assert int(np.count_nonzero(freqs)) == int(
                np.count_nonzero(tok_counts)
            )
            # same positive-entry sequence => identical Shannon float
            assert shannon_bits(freqs) == shannon_bits(tok_counts)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=100),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(seed=0, n=5000, alphabet=16, dominance=0.0)  # no symbol dominates
@example(seed=0, n=5000, alphabet=16, dominance=0.9)  # runs
def test_roundtrip_property(seed, n, alphabet, dominance):
    # ``dominance`` spans both stream forms: run tokens once one symbol
    # covers RLE_DOMINANCE_THRESHOLD of the stream, plain Huffman below
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, 100000))
    codes = offset + rng.integers(0, alphabet, size=n)
    mask = rng.random(n) < dominance
    codes[mask] = offset + alphabet // 2
    blob = encode_symbol_stream(codes.astype(np.int64))
    top = np.bincount(codes - offset).max()
    assert _uses_runs(blob) == (top >= RLE_DOMINANCE_THRESHOLD * n)
    np.testing.assert_array_equal(decode_symbol_stream(blob), codes)


def _uses_runs(blob: bytes) -> bool:
    """The stream header's run-token flag (after count, offset, alphabet)."""
    reader = BitReader(blob)
    reader.read_uint(64 + 32 + 32)
    return bool(reader.read_uint(1))

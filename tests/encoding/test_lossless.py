"""Tests for the lossless byte / float coders."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.lossless import (
    compress_bytes,
    compress_floats_lossless,
    decompress_bytes,
    decompress_floats_lossless,
)


class TestCompressBytes:
    def test_empty(self):
        assert decompress_bytes(compress_bytes(b"")) == b""

    def test_roundtrip_text(self):
        data = b"the quick brown fox jumps over the lazy dog" * 100
        blob = compress_bytes(data)
        assert decompress_bytes(blob) == data
        assert len(blob) < len(data)

    def test_roundtrip_random_falls_back_to_raw(self, rng):
        data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
        blob = compress_bytes(data)
        assert decompress_bytes(blob) == data
        # raw fallback: no more than header + data
        assert len(blob) <= len(data) + 16

    def test_single_byte(self):
        assert decompress_bytes(compress_bytes(b"\x42")) == b"\x42"

    def test_constant_bytes_compress_well(self):
        data = b"\x00" * 10000
        blob = compress_bytes(data)
        assert decompress_bytes(blob) == data
        assert len(blob) < 2000


    def test_short_inputs_equal_the_routine_that_always_tries(self, rng):
        """Inputs of <= 25 bytes skip the symbol-stream attempt (its fixed
        fields alone are 25 bytes); the bytes must be what trying gives."""
        from repro.encoding.codec import encode_symbol_stream

        def always_try(data):
            if len(data) == 0:
                return bytes([0, 0])
            buf = np.frombuffer(data, dtype=np.uint8)
            coded = encode_symbol_stream(buf.astype(np.int64))
            if len(coded) < len(data):
                return bytes([1, 1]) + coded
            return bytes([1, 0]) + data

        coded_lengths = []
        for n in range(65):
            contents = (
                rng.integers(0, 256, size=n, dtype=np.uint8).tobytes(),
                bytes([7]) * n,
                bytes(range(n)),
            )
            for data in contents:
                blob = compress_bytes(data)
                assert blob == always_try(data), (n, data)
                assert decompress_bytes(blob) == data
                if blob[:2] == bytes([1, 1]):
                    coded_lengths.append(n)
        # both outcomes occur in the range, and coding never wins at <= 25
        assert coded_lengths and min(coded_lengths) > 25


class TestFloatsLossless:
    def test_smooth_field_roundtrip_and_gain(self):
        x = np.linspace(0, 1, 8192, dtype=np.float32)
        vals = np.sin(2 * np.pi * x).astype(np.float32)
        blob = compress_floats_lossless(vals)
        out = decompress_floats_lossless(blob)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, vals)
        assert len(blob) < vals.nbytes  # smooth data must actually compress

    def test_float64_roundtrip(self, rng):
        vals = np.cumsum(rng.standard_normal(1000))
        blob = compress_floats_lossless(vals)
        np.testing.assert_array_equal(decompress_floats_lossless(blob), vals)

    def test_single_value(self):
        vals = np.array([3.14159], dtype=np.float64)
        np.testing.assert_array_equal(
            decompress_floats_lossless(compress_floats_lossless(vals)), vals
        )

    def test_special_bit_patterns(self):
        vals = np.array([0.0, -0.0, 1e-38, -1e38, 7.25], dtype=np.float32)
        out = decompress_floats_lossless(compress_floats_lossless(vals))
        np.testing.assert_array_equal(
            out.view(np.uint32), vals.view(np.uint32)
        )  # bit-exact incl. signed zero

    def test_constant_array(self):
        vals = np.full(5000, 2.5, dtype=np.float32)
        blob = compress_floats_lossless(vals)
        np.testing.assert_array_equal(decompress_floats_lossless(blob), vals)
        assert len(blob) < 1000


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=2000),
    st.sampled_from([np.float32, np.float64]),
)
def test_floats_roundtrip_property(seed, n, dtype):
    rng = np.random.default_rng(seed)
    vals = (rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5)).astype(dtype)
    out = decompress_floats_lossless(compress_floats_lossless(vals))
    assert out.dtype == np.dtype(dtype)
    uint_t = np.uint32 if dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(out.view(uint_t), vals.view(uint_t))


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=3000))
def test_bytes_roundtrip_property(data):
    assert decompress_bytes(compress_bytes(data)) == data

"""Unit + property tests for the bit-level writer/reader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.bitstream import BitReader, BitWriter
from repro.errors import DecompressionError


class TestBitWriterBasics:
    def test_empty_writer_returns_empty_bytes(self):
        assert BitWriter().getvalue() == b""

    def test_single_bit(self):
        w = BitWriter()
        w.write_uint(1, 1)
        assert w.getvalue() == b"\x80"
        assert w.bit_length == 1

    def test_msb_first_byte_layout(self):
        w = BitWriter()
        w.write_uint(0b1011, 4)
        w.write_uint(0b0010, 4)
        assert w.getvalue() == bytes([0b10110010])

    def test_crosses_byte_boundary(self):
        w = BitWriter()
        w.write_uint(0x1FF, 9)
        data = w.getvalue()
        assert len(data) == 2
        assert data == bytes([0xFF, 0x80])

    def test_zero_width_write_is_noop(self):
        w = BitWriter()
        w.write_uint(0, 0)
        assert w.bit_length == 0

    def test_value_too_large_raises(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_uint(4, 2)

    def test_negative_value_raises(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_uint(-1, 4)

    def test_width_over_64_raises(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_uint(0, 65)

    def test_full_64bit_value(self):
        w = BitWriter()
        w.write_uint(2**64 - 1, 64)
        r = BitReader(w.getvalue())
        assert r.read_uint(64) == 2**64 - 1

    def test_write_array_scalar_width(self):
        w = BitWriter()
        w.write_array(np.array([1, 2, 3], dtype=np.uint64), 4)
        assert w.bit_length == 12
        r = BitReader(w.getvalue())
        assert r.read_array(3, 4).tolist() == [1, 2, 3]

    def test_write_array_varwidths(self):
        w = BitWriter()
        vals = np.array([1, 5, 0, 7], dtype=np.uint64)
        widths = np.array([1, 3, 2, 3], dtype=np.uint8)
        w.write_array(vals, widths)
        assert w.bit_length == 9
        r = BitReader(w.getvalue())
        assert r.read_varwidth_array(widths).tolist() == [1, 5, 0, 7]

    def test_write_array_shape_mismatch_raises(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_array(np.array([1, 2], dtype=np.uint64),
                          np.array([1], dtype=np.uint8))

    def test_write_empty_array(self):
        w = BitWriter()
        w.write_array(np.zeros(0, dtype=np.uint64), 8)
        assert w.getvalue() == b""


class TestBitReaderBasics:
    def test_read_uint_roundtrip_mixed(self):
        w = BitWriter()
        w.write_uint(5, 3)
        w.write_uint(1000, 17)
        w.write_uint(0, 2)
        r = BitReader(w.getvalue())
        assert r.read_uint(3) == 5
        assert r.read_uint(17) == 1000
        assert r.read_uint(2) == 0

    def test_exhaustion_raises(self):
        r = BitReader(b"\xff")
        r.read_uint(8)
        with pytest.raises(DecompressionError):
            r.read_uint(1)

    def test_declared_bit_length_enforced(self):
        with pytest.raises(DecompressionError):
            BitReader(b"\xff", bit_length=16)

    def test_declared_bit_length_truncates(self):
        r = BitReader(b"\xff", bit_length=3)
        assert r.remaining == 3

    def test_read_array_empty(self):
        r = BitReader(b"")
        assert r.read_array(0, 8).size == 0

    def test_read_zero_width_array(self):
        r = BitReader(b"\x00")
        assert r.read_array(5, 0).tolist() == [0] * 5

    def test_varwidth_with_zero_widths(self):
        w = BitWriter()
        w.write_array(np.array([3], dtype=np.uint64), np.array([2], dtype=np.uint8))
        r = BitReader(w.getvalue())
        widths = np.array([0, 2, 0], dtype=np.uint8)
        assert r.read_varwidth_array(widths).tolist() == [0, 3, 0]

    def test_position_and_advance(self):
        r = BitReader(b"\xaa\xbb")
        r.read_uint(4)
        assert r.position == 4
        r.advance(8)
        assert r.position == 12
        with pytest.raises(DecompressionError):
            r.advance(5)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**64 - 1),
                  st.integers(min_value=1, max_value=64)),
        min_size=0,
        max_size=200,
    )
)
def test_scalar_roundtrip_property(items):
    """Any sequence of (value, width) pairs roundtrips exactly."""
    w = BitWriter()
    clipped = [(v & ((1 << n) - 1) if n < 64 else v, n) for v, n in items]
    for v, n in clipped:
        w.write_uint(v, n)
    r = BitReader(w.getvalue(), bit_length=w.bit_length)
    for v, n in clipped:
        assert r.read_uint(n) == v
    assert r.remaining == 0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=0, max_value=2**31),
)
def test_array_roundtrip_property(count, width, seed):
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 2**width, size=count, dtype=np.uint64)
    w = BitWriter()
    w.write_array(vals, width)
    r = BitReader(w.getvalue())
    out = r.read_array(count, width)
    np.testing.assert_array_equal(out, vals)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2**31))
def test_varwidth_roundtrip_property(count, seed):
    rng = np.random.default_rng(seed)
    widths = rng.integers(0, 33, size=count).astype(np.uint8)
    vals = np.array(
        [rng.integers(0, 1 << int(w)) if w else 0 for w in widths],
        dtype=np.uint64,
    )
    w = BitWriter()
    w.write_array(vals, widths)
    r = BitReader(w.getvalue())
    out = r.read_varwidth_array(widths)
    np.testing.assert_array_equal(out, vals)


def test_interleaved_scalar_and_array_reads():
    w = BitWriter()
    w.write_uint(42, 13)
    w.write_array(np.arange(10, dtype=np.uint64), 7)
    w.write_uint(7, 3)
    r = BitReader(w.getvalue(), bit_length=w.bit_length)
    assert r.read_uint(13) == 42
    np.testing.assert_array_equal(r.read_array(10, 7), np.arange(10))
    assert r.read_uint(3) == 7
    assert r.remaining == 0


# --- the word-level packer against a bit-by-bit reference ------------------


def pack_bit_by_bit(fields):
    """Reference packer: every field spelled out MSB first, one character
    per bit, zero-padded to a whole byte."""
    bits = "".join(format(value, f"0{width}b") for value, width in fields if width)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def random_fields(rng, count):
    widths = rng.integers(0, 65, size=count).tolist()
    raw = rng.integers(0, 2**64, size=count, dtype=np.uint64).tolist()
    return [(value & ((1 << width) - 1), width) for value, width in zip(raw, widths)]


def write_fields(writer, fields, as_array):
    if as_array:
        writer.write_array(
            np.array([v for v, _ in fields], dtype=np.uint64),
            np.array([w for _, w in fields], dtype=np.uint8),
        )
    else:
        for value, width in fields:
            writer.write_uint(value, width)


class TestWordPacker:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_widths_0_to_64(self, seed):
        rng = np.random.default_rng(seed)
        fields = random_fields(rng, int(rng.integers(1, 400)))
        w = BitWriter()
        write_fields(w, fields, as_array=True)
        assert w.bit_length == sum(width for _, width in fields)
        assert w.getvalue() == pack_bit_by_bit(fields)

    @pytest.mark.parametrize("seed", range(20))
    def test_scalar_and_array_writes_interleaved(self, seed):
        rng = np.random.default_rng(100 + seed)
        w, fields = BitWriter(), []
        for piece in range(int(rng.integers(1, 8))):
            part = random_fields(rng, int(rng.integers(0, 60)))
            write_fields(w, part, as_array=bool((piece + seed) % 2))
            fields += part
        assert w.getvalue() == pack_bit_by_bit(fields)
        assert w.getvalue() == pack_bit_by_bit(fields)  # flush is repeatable

    @pytest.mark.parametrize("offset", range(64))
    def test_64_bit_values_at_every_word_offset(self, offset):
        lead = [((1 << offset) - 1, offset)]
        wide = [(2**64 - 1, 64), (0x8000000000000001, 64), (0, 64), (1 << 63, 64)]
        fields = lead + wide + [(5, 3)]
        w = BitWriter()
        w.write_uint(*lead[0])
        w.write_array(np.array([v for v, _ in wide], dtype=np.uint64), 64)
        w.write_uint(5, 3)
        assert w.getvalue() == pack_bit_by_bit(fields)

    @pytest.mark.parametrize(
        "widths",
        [[0, 0, 7, 9], [7, 9, 0, 0], [7, 0, 0, 9], [0, 64, 0, 64, 0], [0, 0, 0]],
        ids=["first", "last", "adjacent", "around-words", "only"],
    )
    def test_zero_width_entries_contribute_nothing(self, widths):
        # a zero-width element is dropped whatever its value
        fields = [(99 if w == 0 else (1 << w) - 2, w) for w in widths]
        w = BitWriter()
        write_fields(w, fields, as_array=True)
        assert w.bit_length == sum(widths)
        assert w.getvalue() == pack_bit_by_bit([f for f in fields if f[1]])

    def test_last_word_exactly_full(self):
        fields = [(0x5A5A5A5A5, 36), (1, 28), (0xFFFF0000FFFF, 48), (0xABCD, 16)]
        assert sum(w for _, w in fields) == 128
        w = BitWriter()
        write_fields(w, fields, as_array=True)
        assert w.getvalue() == pack_bit_by_bit(fields)
        assert len(w.getvalue()) == 16

    def test_scalar_only_writer_matches_the_array_path(self):
        fields = random_fields(np.random.default_rng(5), 300)
        scalar, array = BitWriter(), BitWriter()
        write_fields(scalar, fields, as_array=False)
        write_fields(array, fields, as_array=True)
        assert scalar.getvalue() == array.getvalue() == pack_bit_by_bit(fields)


class TestWriteArrayContract:
    """``write_array`` holds values to the rule ``write_uint`` has: a value
    must fit its width.  The per-bit packer used to drop the excess bits;
    a word-level one would OR them into the neighbouring fields."""

    def test_over_wide_value_rejected_scalar_width(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_array(np.array([3, 16, 1], dtype=np.uint64), 4)
        assert w.bit_length == 0

    def test_over_wide_value_rejected_array_widths(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_array(
                np.array([1, 4, 2**63], dtype=np.uint64),
                np.array([1, 2, 64], dtype=np.uint8),
            )
        w.write_array(  # the widest value of every width is fine
            np.array([1, 3, 2**64 - 1], dtype=np.uint64),
            np.array([1, 2, 64], dtype=np.uint8),
        )
        assert w.bit_length == 67

    @pytest.mark.parametrize("nbits", [65, 300, -1])
    def test_width_outside_0_to_64_rejected(self, nbits):
        with pytest.raises(ValueError):
            BitWriter().write_array(np.zeros(2, dtype=np.uint64), nbits)
        with pytest.raises(ValueError):
            BitWriter().write_array(
                np.zeros(2, dtype=np.uint64), np.array([1, nbits])
            )

    def test_2d_values_with_same_shape_widths_ravel_in_c_order(self):
        values = np.arange(6, dtype=np.uint64).reshape(2, 3)
        widths = np.array([[1, 2, 3], [3, 3, 3]], dtype=np.uint8)
        fields = list(zip(values.ravel().tolist(), widths.ravel().tolist()))
        for nbits in (widths, np.asfortranarray(widths)):
            w = BitWriter()
            w.write_array(values, nbits)
            assert w.getvalue() == pack_bit_by_bit(fields)
        w = BitWriter()
        w.write_array(values, 3)
        assert w.getvalue() == pack_bit_by_bit([(v, 3) for v, _ in fields])
        with pytest.raises(ValueError):  # a shape that merely broadcasts
            BitWriter().write_array(values, widths[0])

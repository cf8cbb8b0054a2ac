"""Tests for stream headers, sections, and interp payload serialization."""

import struct

import numpy as np
import pytest

from repro.core.engine import InterpPlan, LevelPlan, interp_compress
from repro.core.header import (
    FLAG_CHUNKED,
    HEADER_PROBE_BYTES,
    VERSION,
    VERSION_CHECKSUM,
    ChunkEntry,
    StreamHeader,
    chunk_index_size,
    pack_chunk_index,
    pack_header,
    pack_sections,
    parse_header,
    unpack_chunk_index,
    unpack_sections,
)
from repro.core.interpolation import CUBIC, LINEAR
from repro.core.stream import pack_interp_payload, unpack_interp_payload
from repro.errors import DecompressionError


class TestHeader:
    def test_roundtrip(self):
        blob = pack_header(2, np.dtype(np.float32), (100, 500, 500), 1.25e-4)
        header, off = parse_header(blob)
        assert header == StreamHeader(2, np.dtype(np.float32), (100, 500, 500),
                                      1.25e-4)
        assert off == len(blob)

    def test_bad_magic(self):
        with pytest.raises(DecompressionError):
            parse_header(b"XXXX" + b"\x00" * 32)
        # a valid header whose magic alone is flipped
        blob = bytearray(pack_header(2, np.dtype(np.float32), (8, 8), 0.1))
        blob[0] ^= 0xFF
        with pytest.raises(DecompressionError, match="magic"):
            parse_header(bytes(blob))

    def test_truncated(self):
        blob = pack_header(1, np.dtype(np.float64), (8, 8), 0.1)
        with pytest.raises(DecompressionError):
            parse_header(blob[:10])
        with pytest.raises(DecompressionError):
            parse_header(blob[:-4])

    def test_payload_offset(self):
        blob = pack_header(1, np.dtype(np.float64), (4,), 0.1) + b"PAYLOAD"
        header, off = parse_header(blob)
        assert blob[off:] == b"PAYLOAD"

    def test_flags_roundtrip(self):
        blob = pack_header(3, np.dtype(np.float32), (8, 8), 0.5,
                           flags=FLAG_CHUNKED)
        header, _ = parse_header(blob)
        assert header.flags == FLAG_CHUNKED
        assert header.is_chunked
        assert header.version == VERSION

    def test_version1_layout_parses(self):
        """Streams written before the flags byte existed still parse."""
        blob = struct.pack("<4sBBBBd", b"RPZ1", 1, 2, 1, 2, 0.25)
        blob += struct.pack("<2Q", 8, 16)
        header, off = parse_header(blob)
        assert header == StreamHeader(
            2, np.dtype(np.float64), (8, 16), 0.25, version=1, flags=0
        )
        assert not header.is_chunked
        assert off == len(blob)

    def test_future_version_rejected(self):
        blob = bytearray(pack_header(1, np.dtype(np.float64), (4,), 0.1))
        blob[4] = VERSION_CHECKSUM + 1
        with pytest.raises(DecompressionError, match="version"):
            parse_header(bytes(blob))

    def test_v3_header_checksum_roundtrip(self):
        blob = pack_header(
            1, np.dtype(np.float64), (4, 8), 0.1, version=VERSION_CHECKSUM
        )
        header, off = parse_header(blob)
        assert header.version == VERSION_CHECKSUM
        assert header.shape == (4, 8)
        assert off == len(blob)

    def test_v3_header_checksum_detects_flip(self):
        blob = bytearray(
            pack_header(
                1, np.dtype(np.float64), (4, 8), 0.1, version=VERSION_CHECKSUM
            )
        )
        blob[9] ^= 0x01  # corrupt a byte inside the error-bound field
        with pytest.raises(DecompressionError, match="checksum"):
            parse_header(bytes(blob))

    def test_the_largest_written_header_parses_from_the_probe(self):
        """Readers parse a header from the first HEADER_PROBE_BYTES of a
        stream; the largest header written is a 4-D v3 container's."""
        blob = pack_header(
            1, np.dtype(np.float64), (2**40,) * 4, 0.1,
            flags=FLAG_CHUNKED, version=VERSION_CHECKSUM,
        )
        assert len(blob) == 17 + 32 + 4 <= HEADER_PROBE_BYTES
        header, off = parse_header((blob + b"\xff" * 64)[:HEADER_PROBE_BYTES])
        assert header.shape == (2**40,) * 4 and off == len(blob)

    def test_v3_header_truncated_checksum(self):
        blob = pack_header(
            1, np.dtype(np.float64), (4,), 0.1, version=VERSION_CHECKSUM
        )
        with pytest.raises(DecompressionError, match="truncated"):
            parse_header(blob[:-2])


class TestChunkIndex:
    def test_roundtrip(self):
        entries = [
            ChunkEntry(start=(0, 0), shape=(16, 16), offset=0, nbytes=100),
            ChunkEntry(start=(0, 16), shape=(16, 4), offset=100, nbytes=57),
        ]
        blob = b"PRE" + pack_chunk_index((16, 16), entries)
        chunk_shape, parsed, end = unpack_chunk_index(blob, 3, ndim=2)
        assert chunk_shape == (16, 16)
        assert parsed == entries
        assert end == len(blob)

    def test_size_formula_matches(self):
        entries = [
            ChunkEntry(start=(i,), shape=(4,), offset=4 * i, nbytes=4)
            for i in range(5)
        ]
        assert len(pack_chunk_index((4,), entries)) == chunk_index_size(1, 5)

    def test_truncation_detected(self):
        entries = [ChunkEntry(start=(0,), shape=(4,), offset=0, nbytes=4)]
        blob = pack_chunk_index((4,), entries)
        with pytest.raises(DecompressionError):
            unpack_chunk_index(blob[:-2], 0, ndim=1)

    def test_entry_slices(self):
        e = ChunkEntry(start=(4, 8), shape=(2, 3), offset=0, nbytes=1)
        assert e.slices == (slice(4, 6), slice(8, 11))

    def test_starts_beyond_u32_survive(self):
        """Chunk starts range over the full (u64) array extent."""
        e = ChunkEntry(start=(2**32 + 7,), shape=(256,), offset=0, nbytes=9)
        _, parsed, _ = unpack_chunk_index(
            pack_chunk_index((256,), [e]), 0, ndim=1
        )
        assert parsed == [e]


class TestDescribeStream:
    def test_plain_stream(self):
        import repro
        from repro.compressors.base import get_compressor

        data = np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8)
        blob = get_compressor("sz3").compress(data, error_bound=1e-3)
        with repro.open(blob) as f:
            info = f.describe()
        assert info["codec"] == "sz3"
        assert info["shape"] == (8, 8)
        assert info["format"].startswith("plain stream")
        assert info["compressed_bytes"] == len(blob)
        assert info["n_chunks"] == 1 and info["chunk_shape"] == (8, 8)

    def test_chunked_stream(self):
        import repro

        data = np.linspace(0, 1, 256, dtype=np.float32).reshape(16, 16)
        blob = repro.compress(data, codec="sz3", chunks=8, bound=1e-3)
        with repro.open(blob) as f:
            info = f.describe()
        assert info["format"].startswith("chunked container")
        assert info["n_chunks"] == 4
        assert info["chunk_shape"] == (8, 8)


class TestSections:
    def test_roundtrip(self):
        sections = [b"", b"abc", b"\x00" * 1000]
        blob = pack_sections(sections)
        assert unpack_sections(blob) == sections

    def test_empty_list(self):
        assert unpack_sections(pack_sections([])) == []

    def test_truncation_detected(self):
        blob = pack_sections([b"hello", b"world"])
        with pytest.raises(DecompressionError):
            unpack_sections(blob[:-3])

    def test_trailing_bytes_belong_to_no_section(self):
        sections = [b"hello", b"world"]
        assert unpack_sections(pack_sections(sections) + b"\x00" * 16) == sections

    def test_offset_parsing(self):
        blob = b"HDR" + pack_sections([b"x"])
        assert unpack_sections(blob, offset=3) == [b"x"]


class TestInterpPayload:
    def test_roundtrip_preserves_plan_and_streams(self, rng):
        shape = (24, 24)
        data = np.cumsum(rng.standard_normal(24 * 24)).reshape(shape)
        data /= np.abs(data).max()
        plan = InterpPlan(
            levels={
                1: LevelPlan(eb=1e-3, method=CUBIC, order_id=0),
                2: LevelPlan(eb=5e-4, method=LINEAR, order_id=1),
                3: LevelPlan(eb=2.5e-4, method=CUBIC, order_id=0),
                4: LevelPlan(eb=2.5e-4, method=CUBIC, order_id=0),
                5: LevelPlan(eb=2.5e-4, method=CUBIC, order_id=0),
            },
            anchor_stride=8,
        )
        codes, outliers, known, _ = interp_compress(data, plan)
        payload = pack_interp_payload(
            plan, 3, known, codes, outliers, np.dtype(np.float64)
        )
        plan2, top, known2, codes2, outliers2 = unpack_interp_payload(
            payload, np.dtype(np.float64)
        )
        assert top == 3
        assert plan2.anchor_stride == 8
        for l in (1, 2, 3):
            assert plan2.levels[l].eb == plan.levels[l].eb
            assert plan2.levels[l].method == plan.levels[l].method
            assert plan2.levels[l].order_id == plan.levels[l].order_id
        np.testing.assert_array_equal(codes2, codes)
        np.testing.assert_array_equal(known2.ravel(), known.ravel())
        np.testing.assert_array_equal(outliers2, outliers)

    def test_float32_known_points_roundtrip_exactly(self, rng):
        known = rng.standard_normal(100).astype(np.float32).astype(np.float64)
        plan = InterpPlan(levels={1: LevelPlan(eb=1e-3)}, anchor_stride=4)
        payload = pack_interp_payload(
            plan, 1, known, np.zeros(0, np.int64), np.zeros(0),
            np.dtype(np.float32),
        )
        _, _, known2, _, _ = unpack_interp_payload(payload, np.dtype(np.float32))
        np.testing.assert_array_equal(known2, known)

    def test_wrong_section_count_raises(self):
        with pytest.raises(DecompressionError):
            unpack_interp_payload(pack_sections([b"", b""]), np.dtype(np.float64))

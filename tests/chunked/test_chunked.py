"""Tests for the chunked container: random access, back-compat, robustness.

Its bound is P1 (``tests/properties/test_error_bound.py``), its bytes
and decodes on every route P2 (``tests/api/test_route_matrix.py``).
"""

import io
import struct

import numpy as np
import pytest

import repro
from repro.chunked import (
    ChunkedFile,
    ChunkedWriter,
    grid_for,
)
from repro.compressors.base import decompress_any, get_compressor
from repro.core.header import parse_header
from repro.errors import CompressionError, DecompressionError


@pytest.fixture(scope="module")
def field():
    """Small but multi-chunk 3-D field with smooth structure."""
    from repro.datasets import get_dataset

    return get_dataset("miranda", shape=(20, 24, 18), seed=1).astype(np.float32)


REL_EB = 1e-3


class TestRandomAccess:
    def test_single_chunk_matches_full_reconstruction(self, field):
        blob = repro.compress(field, codec="sz3", chunks=16,
                              bound=("rel", REL_EB))
        full = repro.decompress(blob)
        with repro.open(blob) as f:
            np.testing.assert_array_equal(f.chunk(3), full[f.chunk_slices(3)])

    def test_chunk_decode_reads_only_its_byte_range(self, field):
        """Corrupting every OTHER chunk's bytes must not affect chunk i."""
        blob = repro.compress(field, codec="sz3", chunks=16,
                              bound=("rel", REL_EB))
        with ChunkedFile(blob) as f:
            target = 2
            expect = f.chunk(target)
            info = f.info
        corrupted = bytearray(blob)
        for i, e in enumerate(info.entries):
            if i != target:
                start = info.data_start + e.offset
                corrupted[start : start + e.nbytes] = b"\xff" * e.nbytes
        with ChunkedFile(bytes(corrupted)) as f:
            np.testing.assert_array_equal(f.chunk(target), expect)

    def test_hyperslab_with_none_and_negatives(self, field):
        blob = repro.compress(field, codec="sz3", chunks=16,
                              bound=("rel", REL_EB))
        full = repro.decompress(blob)
        with repro.open(blob) as f:
            part = f.read((None, slice(-8, None), slice(0, 9)))
        np.testing.assert_array_equal(part, full[:, -8:, 0:9])

    def test_a_whole_chunk_read_is_that_chunk_decoded(self, field, monkeypatch):
        """A slab that is exactly one whole chunk returns the chunk's own
        decoded array, with no output allocated beside it; any other slab
        is assembled into a fresh one."""
        decoded = []
        chunk = ChunkedFile.chunk

        def recording_chunk(self, index):
            decoded.append(chunk(self, index))
            return decoded[-1]

        monkeypatch.setattr(ChunkedFile, "chunk", recording_chunk)
        blob = repro.compress(field, codec="sz3", chunks=16,
                              bound=("rel", REL_EB))
        plain = get_compressor("sz3").compress(field, error_bound=1e-3)
        with repro.open(blob) as f, repro.open(plain) as p:
            assert f.read(f.chunk_slices(3)) is decoded[-1]
            assert p.read((None, None, None)) is decoded[-1]
            part = p.read((slice(1, None), None, None))
            assert not np.shares_memory(part, decoded[-1])
            np.testing.assert_array_equal(part, decoded[-1][1:])


class TestBackCompat:
    def test_version1_streams_still_decode(self, field):
        """Rewrite a current stream's header as v1; it must still decode."""
        codec = get_compressor("sz3")
        blob = codec.compress(field, error_bound=1e-3)
        header, off = parse_header(blob)
        v1_head = struct.pack(
            "<4sBBBBd", b"RPZ1", 1, header.codec_id, 0, field.ndim,
            header.error_bound,
        ) + struct.pack(f"<{field.ndim}Q", *field.shape)
        v1_blob = v1_head + blob[off:]
        h1, _ = parse_header(v1_blob)
        assert h1.version == 1 and h1.flags == 0 and not h1.is_chunked
        np.testing.assert_array_equal(
            decompress_any(v1_blob), decompress_any(blob)
        )

    def test_future_version_rejected(self):
        bad = b"RPZ1" + bytes([9]) + b"\x00" * 40
        with pytest.raises(DecompressionError, match="version"):
            parse_header(bad)


class TestContainerRobustness:
    def test_truncated_container_raises(self, field):
        blob = repro.compress(field, codec="sz3", chunks=16,
                              bound=("rel", REL_EB))
        with pytest.raises(DecompressionError):
            repro.decompress(blob[: len(blob) // 2])

    def test_a_plain_stream_opens_as_its_own_one_chunk(self, field):
        """The reader's one rule for FLAG_CHUNKED clear: one chunk over the
        whole array, whose bytes are the whole stream, with no digest."""
        plain = get_compressor("sz3").compress(field, error_bound=1e-3)
        with ChunkedFile(plain) as f:
            assert f.n_chunks == 1 and f.grid.chunk_shape == field.shape
            assert f.info.data_start == 0 and f.info.total_bytes == len(plain)
            assert f.info.entries[0].checksum is None
            assert f.chunk_bytes(0) == plain
            np.testing.assert_array_equal(f.chunk(0), decompress_any(plain))

    def test_reader_closes_file_when_parse_fails(self, field, tmp_path):
        """A failed open must not leak the file handle."""
        import gc
        import warnings

        blob = repro.compress(field, codec="sz3", chunks=16, bound=1e-3)
        with ChunkedFile(blob) as f:
            index_end = f.info.data_start
        path = tmp_path / "truncated.rpz"
        path.write_bytes(blob[: index_end - 1])  # cut inside the chunk index
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(DecompressionError):
                ChunkedFile(path)
            gc.collect()  # a leaked handle would raise ResourceWarning here

    @pytest.mark.parametrize("version", [None, 2], ids=["v3", "v2"])
    def test_a_closed_reader_refuses_to_read(self, field, tmp_path, version):
        """Not the file that took its descriptor number since: a v3
        reader would call that a corrupt chunk, a v2 one (no digests)
        would return the other file's bytes."""
        paths = []
        for scale in (1, -1):
            blob = repro.compress(scale * field, codec="sz3", chunks=16,
                                  bound=("rel", REL_EB))
            if version is not None:
                buf = io.BytesIO()
                with ChunkedFile(blob) as f:
                    w = ChunkedWriter(buf, f.info.header.codec_id, f.dtype,
                                      f.grid, f.error_bound, version=version)
                    for i in f.grid:
                        w.write_chunk(i, f.chunk_bytes(i))
                    w.finalize()
                blob = buf.getvalue()
            paths.append(tmp_path / f"{scale}.rpz")
            paths[-1].write_bytes(blob)
        closed = ChunkedFile(paths[0])
        closed.close()
        with ChunkedFile(paths[1]) as other:
            with pytest.raises(ValueError, match="closed"):
                closed.chunk_bytes(0)
            assert other.chunk_bytes(0)

    def test_writer_refuses_missing_and_duplicate_chunks(self):
        grid = grid_for((8, 8), 4)
        buf = io.BytesIO()
        w = ChunkedWriter(buf, 3, np.dtype(np.float32), grid, 1e-3)
        w.write_chunk(0, b"x" * 10)
        with pytest.raises(CompressionError, match="twice"):
            w.write_chunk(0, b"y")
        with pytest.raises(CompressionError, match="never written"):
            w.finalize()

    def test_eb_validation(self, field):
        with pytest.raises(CompressionError):
            repro.compress(field, codec="sz3", chunks=16)  # no bound
        with pytest.raises(CompressionError):
            repro.compress(field, codec="sz3", chunks=16, bound="rel:-1")

    def test_file_roundtrip_and_to_npy(self, field, tmp_path):
        path = tmp_path / "field.rpz"
        out = tmp_path / "recon.npy"
        info = repro.compress(
            field, file=path, codec="sz3", chunks=16, bound=("rel", REL_EB)
        )
        assert info.total_bytes == path.stat().st_size
        with ChunkedFile(path) as f:
            assert f.shape == field.shape
            assert f.codec_name == "sz3"
            d = f.describe()
            assert d["n_chunks"] == f.n_chunks
            f.to_npy(out)
        np.testing.assert_array_equal(
            np.load(out), repro.decompress(path.read_bytes())
        )

"""Tests for the chunked container: roundtrips, random access, back-compat."""

import io
import struct

import numpy as np
import pytest

from repro.chunked import (
    ChunkedFile,
    ChunkedWriter,
    compress_chunked,
    compress_chunked_to_file,
    decompress_chunk,
    decompress_chunked,
    grid_for,
    read_hyperslab,
)
from repro.compressors.base import (
    available_compressors,
    decompress_any,
    get_compressor,
)
from repro.core.header import parse_header
from repro.errors import CompressionError, DecompressionError
from repro.utils import resolve_error_bound


@pytest.fixture(scope="module")
def field():
    """Small but multi-chunk 3-D field with smooth structure."""
    from repro.datasets import get_dataset

    return get_dataset("miranda", shape=(20, 24, 18), seed=1).astype(np.float32)


REL_EB = 1e-3


class TestRoundtrip:
    @pytest.mark.parametrize("codec", available_compressors())
    def test_same_bound_as_unchunked_path(self, field, codec):
        """Chunked and unchunked honor the same absolute bound."""
        abs_eb = resolve_error_bound(field, None, REL_EB)
        blob = compress_chunked(field, codec=codec, chunks=16,
                                rel_error_bound=REL_EB)
        recon = decompress_chunked(blob)
        assert recon.shape == field.shape and recon.dtype == field.dtype
        err = np.abs(recon.astype(np.float64) - field.astype(np.float64)).max()
        assert err <= abs_eb

        unchunked = get_compressor(codec).compress(field, error_bound=abs_eb)
        urecon = decompress_any(unchunked)
        uerr = np.abs(
            urecon.astype(np.float64) - field.astype(np.float64)
        ).max()
        assert uerr <= abs_eb
        # the container header records exactly the resolved bound
        header, _ = parse_header(blob)
        assert header.error_bound == pytest.approx(abs_eb)
        assert header.is_chunked

    def test_decompress_any_routes_containers(self, field):
        blob = compress_chunked(field, codec="sz3", chunks=16,
                                rel_error_bound=REL_EB)
        np.testing.assert_array_equal(
            decompress_any(blob), decompress_chunked(blob)
        )

    def test_codec_decompress_refuses_container(self, field):
        blob = compress_chunked(field, codec="sz3", chunks=16,
                                rel_error_bound=REL_EB)
        with pytest.raises(DecompressionError, match="chunked container"):
            get_compressor("sz3").decompress(blob)

    @pytest.mark.parametrize("shape,chunks", [((37,), 16), ((30, 22), (16, 8))])
    def test_low_rank_and_float64(self, rng, shape, chunks):
        data = np.cumsum(rng.standard_normal(shape).ravel()).reshape(shape)
        blob = compress_chunked(data, codec="sz3", chunks=chunks,
                                error_bound=1e-4)
        recon = decompress_chunked(blob)
        assert recon.dtype == np.float64
        assert np.abs(recon - data).max() <= 1e-4

    def test_parallel_fanout_matches_sequential(self, field):
        seq = compress_chunked(field, codec="sz3", chunks=8,
                               rel_error_bound=REL_EB)
        par = compress_chunked(field, codec="sz3", chunks=8,
                               rel_error_bound=REL_EB, processes=2)
        np.testing.assert_array_equal(
            decompress_chunked(seq), decompress_chunked(par)
        )

    def test_relative_bound_uses_full_field_range(self, rng):
        """A chunk with tiny local range must NOT get a tighter bound."""
        data = np.zeros((32, 8)) + 0.5
        data[16:] += 100.0 * rng.standard_normal((16, 8)).cumsum(axis=0)
        blob = compress_chunked(data, codec="sz3", chunks=(16, 8),
                                rel_error_bound=1e-3)
        header, _ = parse_header(blob)
        assert header.error_bound == pytest.approx(
            resolve_error_bound(data, None, 1e-3)
        )


class TestRandomAccess:
    def test_single_chunk_matches_full_reconstruction(self, field):
        blob = compress_chunked(field, codec="sz3", chunks=16,
                                rel_error_bound=REL_EB)
        full = decompress_chunked(blob)
        slices, chunk = decompress_chunk(blob, 3)
        np.testing.assert_array_equal(chunk, full[slices])

    def test_chunk_decode_reads_only_its_byte_range(self, field):
        """Corrupting every OTHER chunk's bytes must not affect chunk i."""
        blob = compress_chunked(field, codec="sz3", chunks=16,
                                rel_error_bound=REL_EB)
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

    def test_hyperslab_extraction(self, field):
        blob = compress_chunked(field, codec="sz3", chunks=(8, 16, 5),
                                rel_error_bound=REL_EB)
        full = decompress_chunked(blob)
        slab = (slice(5, 18), slice(0, 24), slice(10, 15))
        np.testing.assert_array_equal(read_hyperslab(blob, slab), full[slab])
        # hyperslab values honor the bound vs the original too
        abs_eb = resolve_error_bound(field, None, REL_EB)
        err = np.abs(
            read_hyperslab(blob, slab).astype(np.float64)
            - field[slab].astype(np.float64)
        ).max()
        assert err <= abs_eb

    def test_hyperslab_with_none_and_negatives(self, field):
        blob = compress_chunked(field, codec="sz3", chunks=16,
                                rel_error_bound=REL_EB)
        full = decompress_chunked(blob)
        np.testing.assert_array_equal(
            read_hyperslab(blob, (None, slice(-8, None), slice(0, 9))),
            full[:, -8:, 0:9],
        )


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
        blob = compress_chunked(field, codec="sz3", chunks=16,
                                rel_error_bound=REL_EB)
        with pytest.raises(DecompressionError):
            decompress_chunked(blob[: len(blob) // 2])

    def test_non_container_rejected_by_reader(self, field):
        plain = get_compressor("sz3").compress(field, error_bound=1e-3)
        with pytest.raises(DecompressionError, match="not a chunked"):
            ChunkedFile(plain)

    def test_reader_closes_file_when_parse_fails(self, field, tmp_path):
        """A failed open must not leak the file handle."""
        import gc
        import warnings

        path = tmp_path / "plain.rpz"
        path.write_bytes(get_compressor("sz3").compress(field, error_bound=1e-3))
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
            blob = compress_chunked(scale * field, codec="sz3", chunks=16,
                                    rel_error_bound=REL_EB)
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
            compress_chunked(field, codec="sz3", chunks=16)  # no bound
        with pytest.raises(CompressionError):
            compress_chunked(field, codec="sz3", chunks=16,
                             error_bound=1e-3, rel_error_bound=1e-3)

    def test_file_roundtrip_and_to_npy(self, field, tmp_path):
        path = tmp_path / "field.rpz"
        out = tmp_path / "recon.npy"
        info = compress_chunked_to_file(
            field, path, codec="sz3", chunks=16, rel_error_bound=REL_EB
        )
        assert info.total_bytes == path.stat().st_size
        with ChunkedFile(path) as f:
            assert f.shape == field.shape
            assert f.codec_name == "sz3"
            d = f.describe()
            assert d["n_chunks"] == f.n_chunks
            f.to_npy(out)
        np.testing.assert_array_equal(
            np.load(out), decompress_chunked(path.read_bytes())
        )

"""v3 checksum containers, v2 back-compat, and the ``repro verify`` CLI.

The compat matrix pinned here (DESIGN.md §12): ChunkedWriter emits v3
(per-chunk blake2s digests + header checksum) by default, still writes
v2 on request, and the reader accepts both — v2 containers simply
verify structurally instead of by content digest.
"""

import io

import numpy as np
import pytest

import repro
from repro.__main__ import main
from repro.chunked import ChunkedFile, verify_container
from repro.chunked.container import ChunkedWriter, read_container_info
from repro.compressors.base import get_compressor
from repro.core.header import VERSION, VERSION_CHECKSUM


def smooth2d(shape=(48, 48), seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    return (x / np.abs(x).max()).astype(np.float32)


def write_container(data, version):
    """The chunked compress walk, pinned to one container version."""
    from repro.chunked.tiling import grid_for

    codec = get_compressor("qoz")
    grid = grid_for(data.shape, 16)
    eb = 1e-3 * float(data.max() - data.min())
    buf = io.BytesIO()
    with ChunkedWriter(
        buf, codec.codec_id, data.dtype, grid, eb, version=version
    ) as w:
        for i in grid:
            chunk = np.ascontiguousarray(data[grid.chunk_slices(i)])
            w.write_chunk(i, get_compressor("qoz").compress(
                chunk, error_bound=eb
            ))
    return buf.getvalue()


class TestVersions:
    def test_default_writer_emits_v3_with_digests(self):
        blob = repro.compress(
            smooth2d(), codec="qoz", bound="rel:1e-3", chunks=16
        )
        info = read_container_info(io.BytesIO(blob))
        assert info.header.version == VERSION_CHECKSUM
        assert all(e.checksum is not None for e in info.entries)
        report = verify_container(blob)
        assert report.ok and report.checksums
        assert report.version == VERSION_CHECKSUM

    def test_v2_writer_still_supported_and_readable(self):
        data = smooth2d(seed=1)
        blob = write_container(data, version=VERSION)
        info = read_container_info(io.BytesIO(blob))
        assert info.header.version == VERSION
        assert all(e.checksum is None for e in info.entries)
        with ChunkedFile(blob) as f:
            recon = f.read((slice(None), slice(None)))
        assert np.abs(
            recon.astype(np.float64) - data.astype(np.float64)
        ).max() <= 1e-3 * float(data.max() - data.min()) + 1e-12
        # v2 has no digests: verification falls back to structural checks
        report = verify_container(blob)
        assert report.ok and not report.checksums
        assert report.version == VERSION

    def test_v2_and_v3_chunk_payloads_are_identical(self):
        data = smooth2d(seed=2)
        v2 = write_container(data, version=VERSION)
        v3 = write_container(data, version=VERSION_CHECKSUM)
        with ChunkedFile(v2) as f2, ChunkedFile(v3) as f3:
            for i in range(f2.info.grid.n_chunks):
                assert f2.chunk_bytes(i) == f3.chunk_bytes(i)

    def test_unknown_writer_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            write_container(smooth2d(seed=3), version=7)

    def test_plain_streams_stay_v2(self):
        # unchunked stream bytes are pinned by golden fixtures; the v3
        # container format must not leak into them
        from repro.core.header import parse_header

        blob = get_compressor("qoz").compress(smooth2d(seed=4), error_bound=0.01)
        header, _ = parse_header(blob)
        assert header.version == VERSION


class TestVerifyCli:
    def write_file(self, tmp_path, seed=0):
        data = smooth2d(seed=seed)
        target = tmp_path / "field.rpz"
        repro.compress(
            data, file=target, codec="qoz", bound="rel:1e-3", chunks=16
        )
        return target

    def test_clean_container_exits_zero(self, tmp_path, capsys):
        target = self.write_file(tmp_path)
        assert main(["verify", str(target)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "chunk checksums" in out

    def test_corrupt_container_exits_nonzero_with_coords(
        self, tmp_path, capsys
    ):
        target = self.write_file(tmp_path, seed=1)
        blob = bytearray(target.read_bytes())
        info = read_container_info(io.BytesIO(bytes(blob)))
        entry = info.entries[2]
        blob[info.data_start + entry.offset + entry.nbytes // 2] ^= 0x01
        target.write_bytes(bytes(blob))

        assert main(["verify", str(target)]) == 1
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.err
        assert "chunk 2" in captured.err
        assert str(tuple(entry.start)) in captured.err

    def test_plain_stream_verifies_as_one_chunk(self, tmp_path, capsys):
        # no digest to check: its own header parses and gives the shape
        target = tmp_path / "plain.rpz"
        target.write_bytes(
            get_compressor("qoz").compress(smooth2d(seed=5), error_bound=0.01)
        )
        assert main(["verify", str(target)]) == 0
        out = capsys.readouterr().out
        assert "plain stream, 1 chunk(s)" in out and "structural bounds" in out

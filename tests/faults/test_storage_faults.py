"""Inject storage faults: flipped bits and interrupted writes.

The integrity contract (DESIGN.md §12): a v3 container never yields
wrong bytes — a flipped bit surfaces as :class:`ChunkCorruptionError`
naming the damaged chunk, and an interrupted
``repro.compress(..., file=path)`` leaves either the complete old file
or the complete new file on disk, never a torn mix.
"""

import io
import os

import numpy as np
import pytest

import repro
from repro.chunked import ChunkedFile, verify_container
from repro.chunked.container import read_container_info
from repro.errors import ChunkCorruptionError


def smooth2d(shape=(48, 48), seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    return (x / np.abs(x).max()).astype(np.float32)


def flip_bit_in_chunk(blob: bytes, index: int):
    """Flip one payload bit of chunk ``index``; returns (blob, entry)."""
    info = read_container_info(io.BytesIO(blob))
    entry = info.entries[index]
    pos = info.data_start + entry.offset + entry.nbytes // 2
    raw = bytearray(blob)
    raw[pos] ^= 0x01
    return bytes(raw), entry


class TestBitFlips:
    def test_flip_raises_typed_error_with_chunk_coords(self):
        blob = repro.compress(
            smooth2d(), codec="qoz", bound="rel:1e-3", chunks=16
        )
        corrupt, entry = flip_bit_in_chunk(blob, 3)
        with ChunkedFile(corrupt) as f:
            with pytest.raises(ChunkCorruptionError) as err:
                f.read((slice(None), slice(None)))
        assert err.value.index == 3
        assert err.value.start == entry.start
        assert err.value.shape == entry.shape
        assert "checksum mismatch" in str(err.value)

    def test_decompress_path_verifies_too(self):
        blob = repro.compress(
            smooth2d(seed=1), codec="qoz", bound="rel:1e-3", chunks=16
        )
        corrupt, _ = flip_bit_in_chunk(blob, 0)
        with pytest.raises(ChunkCorruptionError):
            repro.decompress(corrupt)

    def test_verify_opt_out_skips_the_check(self):
        blob = repro.compress(
            smooth2d(seed=2), codec="qoz", bound="rel:1e-3", chunks=16
        )
        corrupt, _ = flip_bit_in_chunk(blob, 2)
        with ChunkedFile(corrupt, verify=False) as f:
            # the damaged bytes come back as-is; callers who opted out
            # own the consequences (forensics / best-effort recovery)
            assert isinstance(f.chunk_bytes(2), bytes)

    def test_verify_container_lists_every_damaged_chunk(self):
        blob = repro.compress(
            smooth2d(seed=3), codec="qoz", bound="rel:1e-3", chunks=16
        )
        corrupt, _ = flip_bit_in_chunk(blob, 1)
        corrupt, _ = flip_bit_in_chunk(corrupt, 5)
        report = verify_container(corrupt)
        assert not report.ok
        assert report.checksums
        assert {f.index for f in report.faults} == {1, 5}
        assert all("checksum mismatch" in f.detail for f in report.faults)

        # the pristine blob still verifies clean end to end
        clean = verify_container(blob)
        assert clean.ok and clean.n_chunks == report.n_chunks


class TestInterruptedWrites:
    def assert_no_temp_droppings(self, directory):
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers == []

    def test_failed_rename_leaves_old_file_intact(self, tmp_path, monkeypatch):
        target = tmp_path / "field.rpz"
        repro.compress(
            smooth2d(seed=4), file=target, codec="qoz",
            bound="rel:1e-3", chunks=16,
        )
        old_bytes = target.read_bytes()

        def broken_replace(src, dst, **kwargs):
            raise OSError("injected: rename failed")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="injected"):
            repro.compress(
                smooth2d(seed=5), file=target, codec="qoz",
                bound="rel:1e-3", chunks=16,
            )
        monkeypatch.undo()

        assert target.read_bytes() == old_bytes  # old file untouched
        self.assert_no_temp_droppings(tmp_path)
        assert verify_container(str(target)).ok

    def test_crash_mid_write_never_creates_the_target(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "fresh.rpz"

        def broken_fsync(fd):
            raise OSError("injected: disk gone")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="injected"):
            repro.compress(
                smooth2d(seed=6), file=target, codec="qoz",
                bound="rel:1e-3", chunks=16,
            )
        monkeypatch.undo()

        assert not target.exists()  # never a torn half-file
        self.assert_no_temp_droppings(tmp_path)

    def test_successful_write_is_complete_and_verifiable(self, tmp_path):
        target = tmp_path / "ok.rpz"
        data = smooth2d(seed=7)
        repro.compress(
            data, file=target, codec="qoz", bound="rel:1e-3", chunks=16
        )
        self.assert_no_temp_droppings(tmp_path)
        assert verify_container(str(target)).ok
        with ChunkedFile(str(target)) as f:
            recon = f.read((slice(None), slice(None)))
        assert np.abs(
            recon.astype(np.float64) - data.astype(np.float64)
        ).max() <= 1e-3 * float(data.max() - data.min()) + 1e-12

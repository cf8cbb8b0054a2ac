"""Tests for the parallel I/O model and the multi-process executor."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel import (
    IOSystemModel,
    compress_fields_parallel,
    decompress_blobs_parallel,
    dump_load_series,
)


class TestIOModel:
    def setup_method(self):
        self.model = IOSystemModel()

    def test_bandwidth_saturates(self):
        bw1 = self.model.aggregate_bandwidth_gbs(512)
        bw2 = self.model.aggregate_bandwidth_gbs(8192)
        assert bw1 < bw2 < self.model.peak_bandwidth_gbs
        assert bw1 == pytest.approx(self.model.peak_bandwidth_gbs / 2)

    def test_dump_time_decreases_with_cr_at_scale(self):
        t_low = self.model.dump_time_s(8192, 10.0, 130.0)
        t_high = self.model.dump_time_s(8192, 70.0, 130.0)
        assert t_high < t_low

    def test_fast_codec_wins_at_small_scale(self):
        # compute-bound regime: throughput dominates
        slow_high_cr = self.model.dump_time_s(64, 70.0, 100.0)
        fast_low_cr = self.model.dump_time_s(64, 11.0, 550.0)
        assert fast_low_cr < slow_high_cr

    def test_high_cr_codec_wins_at_large_scale(self):
        # bandwidth-bound regime: CR dominates (Fig. 14 crossover)
        slow_high_cr = self.model.dump_time_s(800000, 70.0, 100.0)
        fast_low_cr = self.model.dump_time_s(800000, 11.0, 550.0)
        assert slow_high_cr < fast_low_cr

    def test_compression_beats_raw_at_scale(self):
        assert self.model.dump_time_s(8192, 20.0, 120.0) < \
            self.model.raw_dump_time_s(8192)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            self.model.aggregate_bandwidth_gbs(0)
        with pytest.raises(ConfigurationError):
            self.model.dump_time_s(64, -1.0, 100.0)
        with pytest.raises(ConfigurationError):
            self.model.load_time_s(64, 10.0, 0.0)

    def test_series_rows(self):
        stats = {
            "qoz": {"cr": 70.0, "compress_mbps": 120.0, "decompress_mbps": 300.0},
            "zfp": {"cr": 11.0, "compress_mbps": 550.0, "decompress_mbps": 900.0},
        }
        rows = dump_load_series(IOSystemModel(), [1024, 8192], stats)
        assert len(rows) == 4
        assert {r["codec"] for r in rows} == {"qoz", "zfp"}
        assert all(r["dump_s"] > 0 and r["load_s"] > 0 for r in rows)


class TestExecutor:
    def _fields(self, k=3):
        rng = np.random.default_rng(0)
        x = np.linspace(0, np.pi, 48)
        base = np.sin(x)[:, None] * np.cos(x)[None, :]
        return [
            (base + 0.01 * rng.standard_normal((48, 48))).astype(np.float32)
            for _ in range(k)
        ]

    def test_serial_path(self):
        fields = self._fields(2)
        blobs = compress_fields_parallel(
            fields, "sz3", bound="rel:1e-3", processes=1
        )
        outs = decompress_blobs_parallel(blobs, processes=1)
        for f, o in zip(fields, outs):
            eb = 1e-3 * (f.max() - f.min())
            assert np.abs(o.astype(np.float64) - f.astype(np.float64)).max() <= eb

    def test_parallel_matches_serial(self):
        fields = self._fields(4)
        serial = compress_fields_parallel(
            fields, "sz3", bound="rel:1e-3", processes=1
        )
        parallel = compress_fields_parallel(
            fields, "sz3", bound="rel:1e-3", processes=2
        )
        assert [len(b) for b in serial] == [len(b) for b in parallel]
        for s, p in zip(serial, parallel):
            assert s == p  # byte-identical across process boundaries

    def test_parallel_decompress(self):
        fields = self._fields(4)
        blobs = compress_fields_parallel(
            fields, "qoz", codec_kwargs={"metric": "cr"},
            bound="rel:1e-2", processes=2,
        )
        outs = decompress_blobs_parallel(blobs, processes=2)
        for f, o in zip(fields, outs):
            eb = 1e-2 * (f.max() - f.min())
            assert np.abs(o.astype(np.float64) - f.astype(np.float64)).max() <= eb

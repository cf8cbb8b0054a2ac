"""Tests for the parallel I/O model.

The multi-process executor's bytes and arrays are P2
(``tests/api/test_route_matrix.py``), its bound P1.
"""

import pytest

from repro.errors import ConfigurationError
from repro.parallel import IOSystemModel, dump_load_series


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

"""Codec-specific behavior tests for MGARD+, SZ3, and QoZ."""

import numpy as np
import pytest

from repro import MGARDPlus, QoZ, SZ3
from repro.compressors.mgard import _level_budgets
from repro.core.interpolation import CUBIC, LINEAR
from repro.errors import ConfigurationError
from repro.metrics import compression_ratio, psnr


def field2d(n=128, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 3 * np.pi, n)
    base = np.sin(x)[:, None] * np.cos(0.7 * x)[None, :]
    return (base + 0.02 * rng.standard_normal((n, n))).astype(np.float32)


class TestMGARD:
    def test_level_budgets_sum_below_bound(self):
        budgets = _level_budgets(1e-3, 10)
        assert sum(budgets.values()) < 1e-3

    def test_corrections_are_rare(self):
        data = field2d()
        codec = MGARDPlus()
        blob = codec.compress(data, rel_error_bound=1e-3)
        out = codec.decompress(blob)
        eb = 1e-3 * (data.max() - data.min())
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eb

    def test_open_loop_worse_rate_than_sz3(self):
        # the closed-loop SZ3 at the same bound should compress better
        data = field2d(seed=1)
        cr_mgard = compression_ratio(
            data, MGARDPlus().compress(data, rel_error_bound=1e-3)
        )
        cr_sz3 = compression_ratio(
            data, SZ3().compress(data, rel_error_bound=1e-3)
        )
        assert cr_sz3 > cr_mgard * 0.9  # SZ3 at least comparable


class TestSZ3:
    def test_fixed_method_configurations(self):
        data = field2d(seed=2)
        for method in ("linear", "cubic"):
            codec = SZ3(method=method)
            out = codec.decompress(codec.compress(data, rel_error_bound=1e-3))
            eb = 1e-3 * (data.max() - data.min())
            assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eb

    def test_invalid_method_raises(self):
        with pytest.raises(ConfigurationError):
            SZ3(method="quintic")

    def test_auto_selection_beats_or_matches_worst_fixed(self):
        data = field2d(seed=3)
        sizes = {}
        for method in ("linear", "cubic", "auto"):
            sizes[method] = len(SZ3(method=method).compress(data, rel_error_bound=1e-3))
        assert sizes["auto"] <= max(sizes["linear"], sizes["cubic"]) * 1.02


class TestQoZ:
    def test_invalid_metric_raises(self):
        with pytest.raises(ConfigurationError):
            QoZ(metric="mse")

    def test_invalid_selection_mode_raises(self):
        with pytest.raises(ConfigurationError):
            QoZ(selection="sometimes")

    def test_alpha_without_beta_raises(self):
        with pytest.raises(ConfigurationError):
            QoZ(alpha=1.5)

    def test_fixed_alpha_beta_recorded(self):
        data = field2d(seed=4)
        codec = QoZ(alpha=1.5, beta=3.0)
        codec.compress(data, rel_error_bound=1e-3)
        assert codec.last_report.alpha == 1.5
        assert codec.last_report.beta == 3.0
        assert codec.last_report.tuning is None

    def test_report_populated(self):
        data = field2d(seed=5)
        codec = QoZ(metric="psnr")
        blob = codec.compress(data, rel_error_bound=1e-3)
        r = codec.last_report
        assert r is not None
        assert (r.alpha, r.beta) in {
            (a, b)
            for a in (1.0, 1.25, 1.5, 1.75, 2.0)
            for b in (1.5, 2.0, 3.0, 4.0)
        }
        assert r.n_codes > 0
        assert r.anchor_stride == 64  # 2-D default

    def test_ablation_variants_all_roundtrip(self):
        data = field2d(seed=6)
        eb = 1e-3 * (data.max() - data.min())
        variants = [
            QoZ(selection="none", tune=False),              # SZ3 + AP
            QoZ(selection="global", tune=False),            # SZ3 + AP + S
            QoZ(selection="level", tune=False),             # + LIS
            QoZ(selection="level", tune=True),              # full QoZ
        ]
        for codec in variants:
            out = codec.decompress(codec.compress(data, rel_error_bound=1e-3))
            assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eb

    def test_anchor_grid_stored_exactly(self):
        data = field2d(seed=7)
        codec = QoZ(anchor_stride=32, tune=False, selection="none")
        out = codec.decompress(codec.compress(data, rel_error_bound=1e-2))
        np.testing.assert_array_equal(out[::32, ::32], data[::32, ::32])

    def test_metric_modes_trade_off(self):
        # AC mode should not produce a worse |autocorrelation| than CR mode
        from repro.metrics import error_autocorrelation

        data = field2d(seed=8)
        results = {}
        for metric in ("cr", "ac"):
            codec = QoZ(metric=metric)
            out = codec.decompress(codec.compress(data, rel_error_bound=1e-3))
            results[metric] = abs(error_autocorrelation(data, out))
        assert results["ac"] <= results["cr"] + 0.05

    def test_3d_defaults(self):
        data = np.random.default_rng(9).standard_normal((33, 33, 33)).astype(
            np.float32
        )
        codec = QoZ()
        codec.compress(data, rel_error_bound=1e-2)
        assert codec.last_report.anchor_stride == 32

    def test_psnr_mode_at_least_as_good_as_worst_candidate(self):
        data = field2d(seed=10)
        codec = QoZ(metric="psnr")
        out = codec.decompress(codec.compress(data, rel_error_bound=1e-3))
        p_tuned = psnr(data, out)
        codec_bad = QoZ(alpha=1.0, beta=1.0)
        out_bad = codec_bad.decompress(
            codec_bad.compress(data, rel_error_bound=1e-3)
        )
        # tuned PSNR should not be dramatically worse than untuned
        assert p_tuned >= psnr(data, out_bad) - 1.0

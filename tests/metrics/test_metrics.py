"""Tests for PSNR, SSIM, autocorrelation, and rate metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    autocorrelation_profile,
    bit_rate,
    compression_ratio,
    error_autocorrelation,
    error_histogram,
    max_abs_error,
    mse,
    nrmse,
    psnr,
    ssim,
    ssim_reference,
)


class TestPSNR:
    def test_identical_arrays_infinite(self, rng):
        x = rng.standard_normal((32, 32))
        assert psnr(x, x) == float("inf")
        assert mse(x, x) == 0.0
        assert nrmse(x, x) == 0.0

    def test_known_value(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 0.9])  # rmse = 0.1/sqrt(2), vrange = 1
        expected = -20 * np.log10(0.1 / np.sqrt(2))
        assert psnr(x, y) == pytest.approx(expected)

    def test_scale_invariance_of_psnr(self, rng):
        x = rng.standard_normal(1000)
        y = x + 0.01 * rng.standard_normal(1000)
        assert psnr(x, y) == pytest.approx(psnr(10 * x, 10 * y), abs=1e-9)

    def test_constant_original(self):
        x = np.full(10, 3.0)
        assert nrmse(x, x) == 0.0
        assert nrmse(x, x + 1.0) == np.inf


class TestSSIM:
    def test_identical_is_one(self, rng):
        x = rng.standard_normal((40, 40))
        assert ssim(x, x) == pytest.approx(1.0)

    def test_range_and_degradation(self, rng):
        x = np.cumsum(rng.standard_normal((64, 64)), axis=0)
        noisy_small = x + 0.01 * x.std() * rng.standard_normal(x.shape)
        noisy_big = x + 0.5 * x.std() * rng.standard_normal(x.shape)
        s_small, s_big = ssim(x, noisy_small), ssim(x, noisy_big)
        assert -1.0 <= s_big < s_small <= 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_constant_field(self):
        x = np.full((16, 16), 5.0)
        assert ssim(x, x.copy()) == 1.0
        assert ssim(x, x + 1.0) == 0.0

    def test_3d_and_1d_supported(self, rng):
        x3 = rng.standard_normal((12, 12, 12))
        assert 0.99 < ssim(x3, x3) <= 1.0
        x1 = rng.standard_normal(100)
        assert 0.99 < ssim(x1, x1) <= 1.0

    def test_batch_mode_isolates_blocks(self, rng):
        # identical stacks must score 1 regardless of block boundaries
        stack = rng.standard_normal((5, 16, 16))
        assert ssim(stack, stack, batch=True) == pytest.approx(1.0)

    def test_small_window_on_small_input(self, rng):
        x = rng.standard_normal((3, 3))
        assert ssim(x, x) == pytest.approx(1.0)


def _ssim_spelled_out(x, y, data_range, window=7, batch=False):
    """SSIM with every term computed in place — the expression tree the
    hoisted-reference implementation has to reproduce bit for bit."""
    from scipy.ndimage import uniform_filter

    if data_range == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    size = [window] * x.ndim
    if batch:
        size[0] = 1
    win = np.minimum(size, x.shape).tolist()
    mu_x = uniform_filter(x, size=win)
    mu_y = uniform_filter(y, size=win)
    mu_xx = uniform_filter(x * x, size=win)
    mu_yy = uniform_filter(y * y, size=win)
    mu_xy = uniform_filter(x * y, size=win)
    var_x = np.maximum(mu_xx - mu_x * mu_x, 0.0)
    var_y = np.maximum(mu_yy - mu_y * mu_y, 0.0)
    cov = mu_xy - mu_x * mu_y
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


class TestSSIMReference:
    """`reference=` changes what a call costs, never what it returns."""

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("shape", [(6, 16, 16), (4, 9, 8, 8), (5, 40)])
    def test_equals_the_spelled_out_formula_exactly(self, rng, shape, batch):
        x = np.cumsum(rng.standard_normal(shape), axis=-1)
        ref = ssim_reference(x, batch=batch)
        for noise in (1e-4, 1e-2, 1.0):
            y = x + noise * rng.standard_normal(shape)
            for data_range in (float(x.max() - x.min()), 3.7):
                want = _ssim_spelled_out(x, y, data_range, batch=batch)
                assert ssim(x, y, data_range=data_range, batch=batch) == want
                assert (
                    ssim(x, y, data_range=data_range, batch=batch, reference=ref)
                    == want
                )

    def test_constant_field_and_zero_range(self, rng):
        x = np.full((3, 8, 8), 5.0)
        y = x + 0.25 * rng.standard_normal(x.shape)
        ref = ssim_reference(x, batch=True)
        assert ssim(x, y, data_range=2.0, batch=True, reference=ref) == (
            _ssim_spelled_out(x, y, 2.0, batch=True)
        )
        # a zero range is answered from equality, reference or not
        for other, want in ((x.copy(), 1.0), (y, 0.0)):
            assert ssim(x, other, batch=True, reference=ref) == want
            assert ssim(x, other, data_range=0.0, batch=True, reference=ref) == want

    def test_reference_of_another_shape_is_rejected(self, rng):
        x = rng.standard_normal((8, 8))
        with pytest.raises(ValueError):
            ssim(x, x, reference=ssim_reference(rng.standard_normal((8, 9))))


class TestAutocorrelation:
    def test_alternating_errors_strongly_negative(self):
        x = np.zeros(1000)
        e = np.tile([1.0, -1.0], 500)
        assert error_autocorrelation(x, x - e) == pytest.approx(-1.0, abs=0.01)

    def test_constant_error_zero(self):
        x = np.arange(100, dtype=np.float64)
        assert error_autocorrelation(x, x - 0.5) == 0.0

    def test_smooth_error_strongly_positive(self):
        x = np.zeros(1000)
        e = np.sin(np.linspace(0, 8 * np.pi, 1000))
        assert error_autocorrelation(x, x - e) > 0.9

    def test_white_noise_near_zero(self, rng):
        x = np.zeros(20000)
        e = rng.standard_normal(20000)
        assert abs(error_autocorrelation(x, x - e)) < 0.05

    def test_profile_lags(self, rng):
        x = np.zeros(5000)
        e = rng.standard_normal(5000)
        prof = autocorrelation_profile(x, x - e, max_lag=5)
        assert prof.shape == (5,)
        assert np.all(np.abs(prof) < 0.1)

    def test_invalid_lag(self):
        with pytest.raises(ValueError):
            error_autocorrelation(np.zeros(10), np.zeros(10), lag=0)

    def test_short_input(self):
        assert error_autocorrelation(np.zeros(1), np.ones(1)) == 0.0


class TestRate:
    def test_compression_ratio_and_bit_rate(self):
        x = np.zeros((100,), dtype=np.float32)  # 400 bytes
        blob = b"x" * 40
        assert compression_ratio(x, blob) == 10.0
        assert bit_rate(x, blob) == pytest.approx(3.2)

    def test_empty_blob_raises(self):
        with pytest.raises(ValueError):
            compression_ratio(np.zeros(4), b"")

    def test_max_abs_error(self):
        assert max_abs_error(np.array([1.0, 2.0]), np.array([1.5, 2.0])) == 0.5

    def test_error_histogram_counts_and_violations(self, rng):
        x = rng.standard_normal(10000)
        y = x + rng.uniform(-1e-3, 1e-3, 10000)
        centers, counts, violations = error_histogram(x, y, 1e-3)
        assert violations == 0
        assert counts.sum() == 10000
        assert centers.size == 101
        # an out-of-bound point is reported
        y2 = y.copy()
        y2[0] = x[0] + 5e-3
        _, _, v2 = error_histogram(x, y2, 1e-3)
        assert v2 == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=500))
def test_psnr_monotone_in_noise(seed, n):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n))
    if x.max() == x.min():
        return
    noise = rng.standard_normal(n)
    p1 = psnr(x, x + 1e-4 * noise)
    p2 = psnr(x, x + 1e-2 * noise)
    assert p1 >= p2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_autocorrelation_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(300)
    y = x + rng.standard_normal(300) * 0.1
    ac = error_autocorrelation(x, y)
    assert -1.0 - 1e-9 <= ac <= 1.0 + 1e-9


def test_an_ssim_tuned_compress_imports_no_scipy(subprocess_env):
    """SSIM's window means are NumPy's own: a fresh process that tunes a
    QoZ compress for SSIM loads no SciPy module (NumPy is the only
    runtime dependency)."""
    import subprocess
    import sys

    probe = (
        "import sys, numpy as np, repro\n"
        "x = np.add.outer(np.arange(24.0), np.sin(np.arange(32.0)))\n"
        "blob = repro.compress(x, codec='qoz', bound='rel:1e-3',\n"
        "                      codec_kwargs={'metric': 'ssim'})\n"
        "assert repro.decompress(blob).shape == x.shape\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

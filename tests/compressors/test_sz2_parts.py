"""Unit tests for SZ2's building blocks: Lorenzo wavefronts + regression."""

import numpy as np
import pytest

from repro.compressors.lorenzo import (
    lorenzo_estimate_error,
    lorenzo_stencil,
    pad_low,
    predict_wavefront,
    scatter_wavefront,
    wavefronts,
)
from repro.compressors.regression import (
    blockify,
    fit_plane,
    pad_to_blocks,
    predict_plane,
    regression_estimate_error,
    unblockify,
)
from repro.compressors.sz2 import SZ2


class TestLorenzo:
    def test_stencil_sizes(self):
        assert len(lorenzo_stencil(1)) == 1
        assert len(lorenzo_stencil(2)) == 3
        assert len(lorenzo_stencil(3)) == 7
        with pytest.raises(ValueError):
            lorenzo_stencil(4)

    def test_wavefronts_partition_and_order(self):
        coords = np.argwhere(np.ones((4, 5), dtype=bool))
        fronts = wavefronts(coords)
        total = sum(f.shape[0] for f in fronts)
        assert total == 20
        sums = [f.sum(axis=1) for f in fronts]
        assert all((s == s[0]).all() for s in sums)
        firsts = [int(s[0]) for s in sums]
        assert firsts == sorted(firsts)

    def test_wavefronts_empty(self):
        assert wavefronts(np.zeros((0, 2), dtype=np.int64)) == []

    def test_predict_exact_on_bilinear(self):
        # 2-D Lorenzo is exact for f = a + b*i + c*j + d*i*j... actually
        # exact for any f with zero second mixed difference; use f = i + 2j
        ii, jj = np.meshgrid(np.arange(6), np.arange(7), indexing="ij")
        f = (ii + 2 * jj).astype(np.float64)
        padded = pad_low(f.shape)
        padded[1:, 1:] = f
        pts = np.argwhere((ii > 0) & (jj > 0))
        pred = predict_wavefront(padded, pts)
        np.testing.assert_allclose(pred, f[pts[:, 0], pts[:, 1]])

    def test_scatter_then_predict_roundtrip(self):
        padded = pad_low((3, 3))
        pts = np.array([[0, 0], [1, 1]])
        scatter_wavefront(padded, pts, np.array([5.0, 7.0]))
        assert padded[1, 1] == 5.0 and padded[2, 2] == 7.0

    def test_estimate_error_zero_for_lorenzo_exact_field(self):
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        f = (3.0 * ii + jj).astype(np.float64)
        err = lorenzo_estimate_error(f)
        # interior points are exactly predicted; borders use the zero pad
        assert err[1:, 1:].max() < 1e-10
        assert err[0, 0] == pytest.approx(0.0)


class TestRegression:
    def test_blockify_roundtrip(self, rng):
        data = rng.standard_normal((12, 18))
        blocks = blockify(data, 6)
        assert blocks.shape == (6, 36)
        np.testing.assert_array_equal(unblockify(blocks, (12, 18), 6), data)

    def test_blockify_requires_divisible(self):
        with pytest.raises(ValueError):
            blockify(np.zeros((7, 6)), 6)

    def test_blockify_3d_blocks_are_contiguous_tiles(self, rng):
        data = rng.standard_normal((6, 6, 12))
        blocks = blockify(data, 6)
        np.testing.assert_array_equal(blocks[0], data[:6, :6, :6].ravel())

    def test_fit_plane_exact_on_planes(self):
        ii, jj = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
        f = 2.0 + 0.5 * ii - 1.5 * jj
        blocks = blockify(f, 6)
        coeffs = fit_plane(blocks, 6, 2)
        pred = predict_plane(coeffs, 6, 2)
        np.testing.assert_allclose(pred, blocks, atol=1e-4)

    def test_estimate_error_zero_on_planes(self):
        ii, jj = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
        f = 1.0 + ii - jj
        err = regression_estimate_error(blockify(f, 6), 6, 2)
        assert err.max() < 1e-4

    def testpad_to_blocks(self):
        data = np.ones((7, 11), dtype=np.float32)
        padded = pad_to_blocks(data, 6)
        assert padded.shape == (12, 12)
        np.testing.assert_array_equal(padded[:7, :11], data)


class TestSZ2Behavior:
    def test_regression_chosen_on_planar_data(self):
        ii, jj = np.meshgrid(np.arange(48), np.arange(48), indexing="ij")
        f = (0.3 * ii - 0.7 * jj).astype(np.float32)
        codec = SZ2()
        use_reg, _ = codec._choose_predictors(
            pad_to_blocks(f, 12), 12
        )
        assert use_reg.mean() > 0.5  # planes favor regression

    def test_lorenzo_only_in_1d(self):
        f = np.sin(np.linspace(0, 10, 64)).astype(np.float32)
        codec = SZ2()
        use_reg, _ = codec._choose_predictors(pad_to_blocks(f, 32), 32)
        assert not use_reg.any()

"""Unit tests for the ZFP-like codec's building blocks, and the
verification pass it shares with MGARD+."""

import numpy as np
import pytest

from repro.compressors.base import patch_violations
from repro.compressors.regression import blockify, unblockify
from repro.compressors.zfp import (
    BLOCK,
    P_TOP,
    Q,
    ZFP,
    _from_negabinary,
    _group_bounds,
    _plane_cut,
    _scan_order,
    _to_negabinary,
    _transform_axis,
)
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.lossless import compress_floats_lossless
from repro.errors import DecompressionError


class TestNegabinary:
    def test_roundtrip_small(self):
        i = np.array([-5, -1, 0, 1, 7, 1000, -1000], dtype=np.int64)
        np.testing.assert_array_equal(_from_negabinary(_to_negabinary(i)), i)

    def test_roundtrip_large(self, rng):
        i = rng.integers(-(2**45), 2**45, size=1000)
        np.testing.assert_array_equal(_from_negabinary(_to_negabinary(i)), i)

    def test_magnitude_ordering_of_high_bits(self):
        # truncating low negabinary bits must give a bounded error
        i = np.array([12345678], dtype=np.int64)
        u = _to_negabinary(i)
        for k in (0, 4, 8):
            mask = (~np.uint64(0)) << np.uint64(k)
            err = abs(int(_from_negabinary(u & mask)[0]) - 12345678)
            assert err <= 2 ** (k + 1)


class TestTransform:
    def test_exact_inverse_1d(self, rng):
        blocks = rng.integers(-(2**30), 2**30, size=(50, 4))
        orig = blocks.copy()
        _transform_axis(blocks, 1, inverse=False)
        _transform_axis(blocks, 1, inverse=True)
        np.testing.assert_array_equal(blocks, orig)

    def test_exact_inverse_3d(self, rng):
        blocks = rng.integers(-(2**30), 2**30, size=(20, 4, 4, 4))
        orig = blocks.copy()
        for axis in (1, 2, 3):
            _transform_axis(blocks, axis, inverse=False)
        for axis in (3, 2, 1):
            _transform_axis(blocks, axis, inverse=True)
        np.testing.assert_array_equal(blocks, orig)

    def test_constant_block_concentrates_energy(self):
        blocks = np.full((1, 4), 1000, dtype=np.int64)
        _transform_axis(blocks, 1, inverse=False)
        assert blocks[0, 0] == 1000  # mean coefficient
        assert np.all(blocks[0, 1:] == 0)

    def test_growth_bounded(self, rng):
        # transform growth must stay within the headroom P_TOP - Q
        blocks = rng.integers(-(2**Q), 2**Q, size=(100, 4, 4, 4))
        for axis in (1, 2, 3):
            _transform_axis(blocks, axis, inverse=False)
        assert np.abs(blocks).max() < 2 ** (P_TOP - 1)


class TestScanOrder:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_permutation_valid(self, ndim):
        order = _scan_order(ndim)
        assert sorted(order.tolist()) == list(range(BLOCK**ndim))

    def test_dc_coefficient_first(self):
        assert _scan_order(3)[0] == 0

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_group_bounds_cover_block(self, ndim):
        groups = _group_bounds(ndim)
        assert groups[0][0] == 0
        assert groups[-1][1] == BLOCK**ndim
        for (a, b), (c, d) in zip(groups, groups[1:]):
            assert b == c and a < b


class TestBlockify:
    def test_roundtrip(self, rng):
        data = rng.standard_normal((8, 12, 4))
        blocks = blockify(data, BLOCK)
        assert blocks.shape == (2 * 3 * 1, BLOCK**3)
        np.testing.assert_array_equal(unblockify(blocks, (8, 12, 4), BLOCK), data)


class TestPlaneCut:
    def test_tighter_bound_keeps_more_planes(self):
        emax = np.array([0])
        k_loose = _plane_cut(emax, 1e-2, 3)[0]
        k_tight = _plane_cut(emax, 1e-6, 3)[0]
        assert k_tight < k_loose

    def test_high_exponent_blocks_keep_more_planes(self):
        ks = _plane_cut(np.array([0, 10]), 1e-4, 3)
        assert ks[1] < ks[0] or ks[0] == 0

    def test_clipped_to_valid_range(self):
        ks = _plane_cut(np.array([-2000, 2000]), 1e-3, 3)
        assert np.all((0 <= ks) & (ks <= P_TOP))


class TestZFPAccuracy:
    def test_psnr_scales_with_bound(self):
        from repro.metrics import psnr

        ax = np.linspace(0, 1, 48)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        f = (np.sin(5 * X) * np.cos(7 * Y) * (1 + Z)).astype(np.float32)
        codec = ZFP()
        psnrs = []
        for eb in (1e-2, 1e-3, 1e-4):
            out = codec.decompress(codec.compress(f, rel_error_bound=eb))
            psnrs.append(psnr(f, out))
        assert psnrs[0] < psnrs[1] < psnrs[2]

    def test_all_zero_field(self):
        f = np.zeros((8, 8, 8), dtype=np.float32)
        codec = ZFP()
        blob = codec.compress(f, error_bound=1e-6)
        np.testing.assert_array_equal(codec.decompress(blob), f)
        assert len(blob) < 300


class TestVerificationPass:
    """The exact store MGARD+ and ZFP share (DESIGN.md §8); that it
    keeps the bound is P1."""

    @pytest.mark.parametrize("index", [42, 2**64 - 1], ids=["past-end", "negative"])
    def test_a_forged_index_is_refused(self, index):
        writer = BitWriter()
        writer.write_uint(1, 64)
        writer.write_array(np.array([index], dtype=np.uint64), 64)
        values = compress_floats_lossless(np.ones(1))
        with pytest.raises(DecompressionError, match="outlier index"):
            patch_violations(np.zeros(42), BitReader(writer.getvalue()), values)

"""Tests for the linear-scale error-bounded quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantize.linear import (
    DEFAULT_RADIUS,
    OUTLIER_CODE,
    LinearQuantizer,
    quantize_block,
    reconstruct_block,
)


class TestQuantizeBlock:
    def test_zero_residual_maps_to_radius(self):
        v = np.array([1.0, 2.0])
        codes, recon, outl = quantize_block(v, v, 0.1)
        assert codes.tolist() == [DEFAULT_RADIUS, DEFAULT_RADIUS]
        np.testing.assert_allclose(recon, v)
        assert outl.size == 0

    def test_reconstruction_within_bound(self, rng):
        values = rng.standard_normal(1000)
        preds = values + rng.uniform(-0.5, 0.5, 1000)
        codes, recon, outl = quantize_block(values, preds, 1e-3)
        assert np.all(np.abs(values - recon) <= 1e-3)
        assert outl.size == 0

    def test_overflow_becomes_outlier(self):
        values = np.array([1e9, 0.0])
        preds = np.zeros(2)
        codes, recon, outl = quantize_block(values, preds, 1e-6)
        assert codes[0] == OUTLIER_CODE
        assert recon[0] == 1e9  # exact
        assert outl.tolist() == [1e9]

    def test_outlier_order_is_scan_order(self):
        values = np.array([5e8, 0.0, -7e8])
        codes, recon, outl = quantize_block(values, np.zeros(3), 1e-9)
        assert outl.tolist() == [5e8, -7e8]

    def test_cast_dtype_guard_catches_float32_rounding(self):
        # recon = pred is within eb of the value in float64, but float32
        # rounding (spacing 0.0625 at 1e6) pushes it past the bound
        eb = 0.04
        value = np.array([1e6], dtype=np.float64)
        pred = np.array([1e6 - 0.033])
        codes, recon, outl = quantize_block(value, pred, eb, cast_dtype=np.float32)
        assert codes[0] == OUTLIER_CODE
        assert recon[0] == value[0]
        # without the cast guard it would have been accepted
        codes64, _, _ = quantize_block(value, pred, eb, cast_dtype=np.float64)
        assert codes64[0] != OUTLIER_CODE

    def test_roundtrip_block(self, rng):
        values = rng.standard_normal(500)
        preds = values + rng.uniform(-0.1, 0.1, 500)
        codes, recon, outl = quantize_block(values, preds, 1e-4)
        recon2 = reconstruct_block(codes, preds, 1e-4, outl)
        np.testing.assert_array_equal(recon, recon2)

    def test_multidimensional_input(self, rng):
        values = rng.standard_normal((8, 9))
        preds = np.zeros((8, 9))
        codes, recon, _ = quantize_block(values, preds, 0.01)
        assert codes.shape == (8, 9)
        assert np.all(np.abs(values - recon) <= 0.01)


def _quantize_block_masked(values, preds, eb, radius=DEFAULT_RADIUS,
                           cast_dtype=np.float64):
    """`quantize_block` with the outlier patch-up applied unconditionally:
    the specification its no-outlier early return is checked against."""
    values = np.asarray(values, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    q = np.rint((values - preds) * (1.0 / (2.0 * eb)))
    recon = q * (2.0 * eb)
    recon += preds
    delivered = recon.astype(cast_dtype).astype(np.float64)
    ok = (np.abs(values - delivered) <= eb) & (np.abs(q) < radius)
    codes = q.astype(np.int64) + radius
    bad = ~ok
    codes[bad] = OUTLIER_CODE
    outliers = values[bad]
    recon[bad] = outliers
    return codes, recon, outliers


class TestEarlyReturnEqualsMaskedPath:
    def check(self, values, preds, eb, **kw):
        got = quantize_block(values, preds, eb, **kw)
        with np.errstate(invalid="ignore"):
            want = _quantize_block_masked(values, preds, eb, **kw)
        # the codes come narrow (TestCodeDtype): compare their values
        assert got[0].shape == want[0].shape
        np.testing.assert_array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)  # NaN == NaN here
        return got

    @pytest.mark.parametrize("cast_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_outliers", [0, 1, 40])
    def test_zero_one_and_many_outliers(self, rng, n_outliers, cast_dtype):
        values = rng.standard_normal((6, 50))
        preds = values + rng.uniform(-0.3, 0.3, values.shape)
        hit = rng.choice(values.size, size=n_outliers, replace=False)
        values.ravel()[hit] += 1e9  # residual overflows the bin range
        _, _, outliers = self.check(values, preds, 1e-3, cast_dtype=cast_dtype)
        assert outliers.size == n_outliers

    def test_nan_is_stored_exactly(self, rng):
        values = rng.standard_normal(64)
        values[17] = np.nan
        with np.errstate(invalid="ignore"):
            codes, recon, outliers = self.check(values, np.zeros(64), 1e-2)
        assert codes[17] == OUTLIER_CODE
        assert np.isnan(recon[17]) and np.isnan(outliers).all()
        assert outliers.size == 1

    def test_float32_rounding_outlier(self):
        value, pred = np.array([1e6]), np.array([1e6 - 0.033])
        codes, _, _ = self.check(value, pred, 0.04, cast_dtype=np.float32)
        assert codes[0] == OUTLIER_CODE

    def test_strided_views_are_consumed_in_place(self, rng):
        work = rng.standard_normal((4, 9, 10))
        targets = work[:, ::2, 1::2].transpose(0, 2, 1)
        self.check(targets, np.zeros(targets.shape), 5e-3)


class TestLinearQuantizerState:
    def test_multi_pass_roundtrip(self, rng):
        q = LinearQuantizer()
        values = [rng.standard_normal(50), rng.standard_normal((4, 6))]
        preds = [np.zeros(50), np.zeros((4, 6))]
        recons = [q.quantize(v, p, 1e-2) for v, p in zip(values, preds)]
        codes, outliers = q.harvest()
        assert codes.size == 50 + 24

        d = LinearQuantizer(codes=codes, outliers=outliers)
        out0 = d.dequantize(50, preds[0], 1e-2)
        out1 = d.dequantize(24, preds[1], 1e-2)
        np.testing.assert_array_equal(out0, recons[0])
        np.testing.assert_array_equal(out1, recons[1])
        assert out1.shape == (4, 6)

    def test_outliers_interleaved_across_passes(self, rng):
        q = LinearQuantizer()
        v1 = np.array([1e9, 0.0])
        v2 = np.array([0.0, -1e9])
        q.quantize(v1, np.zeros(2), 1e-6)
        q.quantize(v2, np.zeros(2), 1e-6)
        codes, outliers = q.harvest()
        assert outliers.tolist() == [1e9, -1e9]
        d = LinearQuantizer(codes=codes, outliers=outliers)
        np.testing.assert_array_equal(d.dequantize(2, np.zeros(2), 1e-6), v1)
        np.testing.assert_array_equal(d.dequantize(2, np.zeros(2), 1e-6), v2)

    def test_exhausted_codes_raise(self):
        from repro.errors import DecompressionError

        d = LinearQuantizer(codes=np.zeros(1, dtype=np.int64),
                            outliers=np.zeros(1))
        d.dequantize(1, np.zeros(1), 1e-3)
        with pytest.raises(DecompressionError):
            d.dequantize(1, np.zeros(1), 1e-3)

    def test_a_pass_longer_than_what_is_left_raises(self):
        from repro.errors import DecompressionError

        d = LinearQuantizer(codes=np.full(5, DEFAULT_RADIUS), outliers=np.zeros(0))
        d.dequantize(3, np.zeros(3), 1e-3)
        with pytest.raises(DecompressionError, match="code stream exhausted"):
            d.dequantize(3, np.zeros(3), 1e-3)

    def test_outlier_code_without_a_stored_value_raises(self):
        from repro.errors import DecompressionError

        codes = np.array([DEFAULT_RADIUS, OUTLIER_CODE, OUTLIER_CODE])
        with pytest.raises(DecompressionError, match="outlier stream exhausted"):
            LinearQuantizer(codes=codes, outliers=np.array([1.0]))
        with pytest.raises(DecompressionError, match="outlier stream exhausted"):
            reconstruct_block(codes, np.zeros(3), 1e-3, np.zeros(0))

    def test_decode_equals_the_per_pass_formulation(self, rng):
        """Set-up hoists the outlier mask out of the passes, and each
        pass centres its own slice; every pass must still give the bits
        of the formula, outliers and strided predictions included."""

        def per_pass(codes, preds, eb, outliers, radius):
            recon = preds + (2.0 * eb) * (codes.astype(np.float64) - radius)
            recon[codes == OUTLIER_CODE] = outliers
            return recon

        radius, eb = 64, 3e-3
        shapes = [(7,), (4, 6), (3, 2, 5), (1,), (2, 0), (9, 3)]
        for outlier_rate in (0.0, 0.2):
            preds = [rng.standard_normal(s[::-1]).T * 50 for s in shapes]
            codes = rng.integers(1, 2 * radius, sum(p.size for p in preds))
            codes[rng.random(codes.size) < outlier_rate] = OUTLIER_CODE
            outliers = rng.standard_normal(int((codes == OUTLIER_CODE).sum()))
            d = LinearQuantizer(radius, codes=codes, outliers=outliers)
            pos = out_pos = 0
            for pred in preds:
                part = codes[pos : pos + pred.size]
                n_out = int((part == OUTLIER_CODE).sum())
                expected = per_pass(
                    part, pred.ravel(), eb,
                    outliers[out_pos : out_pos + n_out], radius,
                ).reshape(pred.shape)
                got = d.dequantize(pred.size, pred, eb)
                assert got.shape == pred.shape
                np.testing.assert_array_equal(got, expected)
                assert got.tobytes() == expected.tobytes()
                pos += pred.size
                out_pos += n_out

    def test_empty_harvest(self):
        codes, outliers = LinearQuantizer().harvest()
        assert codes.size == 0 and outliers.size == 0


class TestCodeDtype:
    """The code type is one decision, taken from the radius: the
    narrowest unsigned type that holds the top code, ``2 * radius - 1``."""

    @pytest.mark.parametrize(
        "radius, dtype",
        [(128, np.uint8), (DEFAULT_RADIUS, np.uint16),
         (DEFAULT_RADIUS + 1, np.uint32)],
    )
    def test_the_radius_sets_it(self, radius, dtype):
        eb = 1e-3
        # the top and bottom bins, a zero residual and two outliers (out
        # of range, NaN): only in-range bins reach the cast
        steps = np.array([radius - 1, -(radius - 1), 0, 4 * radius, 0.0])
        values = steps * (2 * eb)
        values[-1] = np.nan
        preds = np.zeros(values.size)
        q = LinearQuantizer(radius)
        with np.errstate(invalid="raise"):  # a cast of NaN or inf raises
            recon = q.quantize(values, preds, eb)
        codes, outliers = q.harvest()
        assert codes.dtype == dtype
        assert LinearQuantizer(radius).harvest()[0].dtype == dtype
        assert codes.tolist() == [2 * radius - 1, 1, radius, 0, 0]
        # the decoder takes the codes as they come, int64 included
        for given_codes in (codes, codes.astype(np.int64)):
            d = LinearQuantizer(radius, codes=given_codes, outliers=outliers)
            got = d.dequantize(values.size, preds, eb)
            assert got.tobytes() == recon.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=1e-9, max_value=10.0),
    st.integers(min_value=1, max_value=500),
)
def test_bound_invariant_property(seed, eb, n):
    """|value - recon| <= eb for every point, any (values, preds, eb)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    preds = values + rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3)
    codes, recon, outl = quantize_block(values, preds, eb)
    assert np.all(np.abs(values - recon) <= eb)
    recon2 = reconstruct_block(codes, preds, eb, outl)
    np.testing.assert_array_equal(recon, recon2)

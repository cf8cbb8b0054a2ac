"""Tests for shared helpers (validation, bounds, geometry)."""

import numpy as np
import pytest

from repro.errors import CompressionError
from repro.utils import (
    ceil_div,
    dtype_code,
    dtype_from_code,
    is_pow2,
    resolve_error_bound,
    validate_input,
    value_range,
)


class TestValidateInput:
    def test_accepts_float32_and_float64(self):
        for dtype in (np.float32, np.float64):
            out = validate_input(np.ones((3, 3), dtype=dtype))
            assert out.flags["C_CONTIGUOUS"]

    def test_makes_contiguous(self):
        arr = np.ones((8, 8), dtype=np.float32)[::2, ::2]
        assert not arr.flags["C_CONTIGUOUS"]
        assert validate_input(arr).flags["C_CONTIGUOUS"]

    def test_rejects_non_array(self):
        with pytest.raises(CompressionError):
            validate_input([1.0, 2.0])

    def test_rejects_int_dtype(self):
        with pytest.raises(CompressionError):
            validate_input(np.ones(4, dtype=np.int64))

    def test_rejects_empty(self):
        with pytest.raises(CompressionError):
            validate_input(np.zeros((0,), dtype=np.float32))

    def test_rejects_5d(self):
        with pytest.raises(CompressionError):
            validate_input(np.zeros((2,) * 5, dtype=np.float32))

    def test_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf):
            arr = np.ones(4, dtype=np.float64)
            arr[1] = bad
            with pytest.raises(CompressionError):
                validate_input(arr)


class TestErrorBounds:
    def test_absolute_passthrough(self):
        data = np.array([0.0, 10.0])
        assert resolve_error_bound(data, 0.5, None) == 0.5

    def test_relative_scales_by_value_range(self):
        data = np.array([0.0, 10.0])
        assert resolve_error_bound(data, None, 1e-2) == pytest.approx(0.1)

    def test_both_or_neither_rejected(self):
        data = np.array([0.0, 1.0])
        with pytest.raises(CompressionError):
            resolve_error_bound(data, 0.1, 0.1)
        with pytest.raises(CompressionError):
            resolve_error_bound(data, None, None)

    def test_relative_on_constant_field(self):
        data = np.full(4, 5.0)
        eb = resolve_error_bound(data, None, 1e-3)
        assert eb > 0

    def test_invalid_bounds_rejected(self):
        data = np.array([0.0, 1.0])
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(CompressionError):
                resolve_error_bound(data, bad, None)

    def test_value_range(self):
        assert value_range(np.array([-2.0, 3.0])) == 5.0


class TestSmallHelpers:
    def test_ceil_div(self):
        assert ceil_div(7, 2) == 4
        assert ceil_div(8, 2) == 4
        assert ceil_div(1, 10) == 1

    def test_is_pow2(self):
        assert is_pow2(1) and is_pow2(64)
        assert not is_pow2(0) and not is_pow2(48) and not is_pow2(-4)

    def test_dtype_codes_roundtrip(self):
        for dt in (np.float32, np.float64):
            assert dtype_from_code(dtype_code(np.dtype(dt))) == np.dtype(dt)
        with pytest.raises(CompressionError):
            dtype_code(np.dtype(np.int32))
        with pytest.raises(CompressionError):
            dtype_from_code(9)

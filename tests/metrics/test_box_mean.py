"""The NumPy box mean behind SSIM against ``scipy.ndimage.uniform_filter``.

SciPy is a test dependency only: it is the reference the filter must
equal bit for bit, for every window SSIM asks for (one per axis, clipped
to the extent; axis 0 left alone in batch mode) and for values whose
arithmetic is easy to get subtly wrong: signed zeros, denormals, sums and
squares that overflow to inf, NaN and integers.  A NaN must land where
SciPy's does; its sign and payload are not compared, because neither C
nor NumPy fixes which operand's NaN a sum of two NaNs returns (NumPy's
choice changes with the array length).
"""

import importlib

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

ssim_module = importlib.import_module("repro.metrics.ssim")
_box_means = ssim_module._box_means

SHAPES = [
    (1,), (5,), (8,), (13,),
    (1, 7), (6, 1), (8, 8), (3, 11),
    (1, 1, 9), (4, 1, 6), (5, 7, 3), (2, 8, 8),
    (1, 3, 1, 5), (2, 4, 3, 6), (3, 2, 5, 4),
]


def _values(kind, shape, rng):
    if kind == "normal":
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
    if kind == "signed_zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=shape, p=[0.4, 0.4, 0.1, 0.1])
    if kind == "denormal":
        return rng.choice([-1.0, 1.0], size=shape) * rng.integers(1, 2**20, size=shape) * 5e-324
    if kind == "huge":
        # 1e300 squares to inf, and 1e308 sums past the largest double
        return rng.choice([1e300, -1e300, 1e308, -1e308, 1.0], size=shape)
    if kind == "nan":
        x = rng.standard_normal(shape)
        x[rng.random(shape) < 0.2] = np.nan
        x[rng.random(shape) < 0.1] = np.inf
        return x
    if kind == "integers":
        return rng.integers(-1000, 1000, size=shape).astype(np.float64)
    raise AssertionError(kind)


KINDS = ["normal", "signed_zeros", "denormal", "huge", "nan", "integers"]


def _window(shape, window, batch):
    size = [window] * len(shape)
    if batch:
        size[0] = 1
    return np.minimum(size, shape).tolist()


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("window", range(1, 9))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_equals_scipy_bit_for_bit(shape, window, batch, rng):
    win = _window(shape, window, batch)
    for kind in KINDS:
        x = _values(kind, shape, rng)
        y = _values("normal", shape, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            means = _box_means(
                np.empty((3,) + shape), win, [(x, None), (x, x), (x, y)]
            )
            wants = [uniform_filter(t, size=win) for t in (x, x * x, x * y)]
        for got, want in zip(means, wants):
            _assert_same_bits(got, want)


@pytest.mark.parametrize("shape", [(3, 17, 5), (9, 64), (2, 3, 4, 5)])
def test_one_line_per_piece_changes_nothing(shape, rng, monkeypatch):
    x = rng.standard_normal(shape)
    win = _window(shape, 7, False)
    want = _box_means(np.empty((2,) + shape), win, [(x, None), (x, x)])
    monkeypatch.setattr(ssim_module, "_PIECE_BYTES", 1)
    got = _box_means(np.empty((2,) + shape), win, [(x, None), (x, x)])
    _assert_same_bits(got, want)
    _assert_same_bits(got[1], uniform_filter(x * x, size=win))


def test_window_one_after_a_filtered_axis_is_refused(rng):
    x = rng.standard_normal((4, 5))
    with pytest.raises(ValueError):
        _box_means(np.empty((1, 4, 5)), [3, 1], [(x, None)])

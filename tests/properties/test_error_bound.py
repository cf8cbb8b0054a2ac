"""P1, the error bound: every codec and input class, single and chunked.

The paper's one hard promise (Fig. 7): the decoded array stays within
``eb`` of the input at every point.  Stated once here over the whole
input space instead of example by example: every library codec x
{float32, float64} x ndim 1-4 (size-1 axes, odd extents) x eight value
classes x {abs, rel}, on the single-array route and, for the relative
half, on a two-chunk container (an absolute bound passes through the
chunked route unchanged, and P2 holds that route's bytes to the single
stream's).  Per case:

* the decode keeps the shape and the dtype;
* the header records the bound asked for, resolved to absolute;
* ``max|x - x'|``, computed in float64, is at most the header's ``eb``;
* ``decompress_any`` -- a second decode, through the router -- returns
  the codec's own decode.

SZ2 has no 4-D predictor and must refuse a 4-D field with
``CompressionError`` on both routes.  Admission is part of the contract
too: a codec takes only a finite float array with one positive bound,
and decodes only its own streams.
"""

import numpy as np
import pytest

import repro
from inputs import LIBRARY_CODECS, walk
from repro.compressors.base import decompress_any, get_compressor
from repro.core.header import parse_header
from repro.errors import CompressionError, DecompressionError
from repro.utils import resolve_error_bound

SHAPES = [(47,), (21, 17), (9, 1, 13), (3, 5, 1, 6)]
DTYPES = [np.float32, np.float64]


def spiky(shape):
    x = walk(shape, 6)
    x.reshape(-1)[:: max(1, x.size // 5)] *= 100.0
    return x


def is32(dtype):
    return dtype == np.float32


#: value class -> (``(shape, dtype) -> values``, absolute bound as a
#: fraction of the class's largest magnitude, relative bound)
CLASSES = {
    "constant": (lambda shape, dtype: np.full(shape, 7.5), 1e-3, 1e-3),
    "ramp": (
        lambda shape, dtype: sum(np.indices(shape, dtype=float)) * 0.37 - 3.0,
        1e-3, 1e-3,
    ),
    "smooth": (lambda shape, dtype: walk(shape, 1), 1e-3, 1e-3),
    "noise": (
        lambda shape, dtype: np.random.default_rng(2).standard_normal(shape),
        1e-2, 1e-3,
    ),
    "huge": (
        lambda shape, dtype: walk(shape, 3) * (1e30 if is32(dtype) else 1e200),
        1e-3, 1e-3,
    ),
    # below the smallest normal: 1.2e-38 (float32), 2.2e-308 (float64)
    "denormal": (
        lambda shape, dtype: walk(shape, 4) * (1e-40 if is32(dtype) else 1e-310),
        1e-3, 1e-3,
    ),
    # a float32 ulp at 1e3 is 6.1e-5: the bound sits near the resolution
    "offset": (
        lambda shape, dtype: 1e3 + 1e-2 * np.random.default_rng(5).standard_normal(shape),
        1e-7, 2e-3,
    ),
    "spiky": (lambda shape, dtype: spiky(shape), 1e-3, 1e-4),
}


def field(name, shape, dtype):
    make = CLASSES[name][0]
    return np.ascontiguousarray(make(shape, dtype).astype(dtype))


def bound_for(name, mode, data):
    _, abs_frac, rel = CLASSES[name]
    if mode == "rel":
        return repro.ErrorBound("rel", rel)
    scale = float(np.abs(data.astype(np.float64)).max()) or 1.0
    return repro.ErrorBound("abs", abs_frac * scale)


def chunks_for(shape):
    """Two chunks: the longest axis cut in two."""
    longest = int(np.argmax(shape))
    return tuple((n + 1) // 2 if a == longest else n for a, n in enumerate(shape))


def check_decode(decode, blob, data, requested):
    """The decode of ``blob``, checked against ``data`` and its header."""
    header, _ = parse_header(blob)
    assert header.error_bound == pytest.approx(requested, rel=1e-6)
    out = decode(blob)
    assert out.shape == data.shape
    assert out.dtype == data.dtype
    err = np.abs(out.astype(np.float64) - data.astype(np.float64)).max()
    assert err <= header.error_bound
    return out


CASES = [
    pytest.param(
        codec, dtype, shape, name, mode,
        id=f"{codec}-{np.dtype(dtype).name}-{'x'.join(map(str, shape))}"
           f"-{name}-{mode}",
    )
    for codec in LIBRARY_CODECS
    for dtype in DTYPES
    for shape in SHAPES
    for name in CLASSES
    for mode in ("abs", "rel")
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # denormal math
@pytest.mark.parametrize("codec,dtype,shape,name,mode", CASES)
def test_the_decode_stays_within_the_bound(codec, dtype, shape, name, mode):
    data = field(name, shape, dtype)
    bound = bound_for(name, mode, data)
    kwargs = bound.kwargs()
    requested = resolve_error_bound(data, **kwargs)
    compressor = get_compressor(codec)
    chunks = chunks_for(shape)
    if codec == "sz2" and data.ndim == 4:
        with pytest.raises(CompressionError, match="1-3 dimensions"):
            compressor.compress(data, **kwargs)
        with pytest.raises(CompressionError, match="1-3 dimensions"):
            repro.compress(data, codec=codec, bound=bound, chunks=chunks)
        return
    blob = compressor.compress(data, **kwargs)
    out = check_decode(compressor.decompress, blob, data, requested)
    # a second decode, through the router, returns the same array
    again = decompress_any(blob)
    assert again.dtype == out.dtype
    np.testing.assert_array_equal(again, out)
    if mode == "rel":
        # the chunked route resolves the bound over the float64 range of
        # the whole field, then passes it to every chunk
        container = repro.compress(data, codec=codec, bound=bound, chunks=chunks)
        with repro.open(container) as f:
            assert f.n_chunks == 2
        requested = resolve_error_bound(data.astype(np.float64), **kwargs)
        check_decode(repro.decompress, container, data, requested)


ZEROS, ABS = np.zeros((4, 4), dtype=np.float32), {"error_bound": 0.1}
INVALID = {
    "int32": (np.zeros((4, 4), dtype=np.int32), ABS),
    "no-bound": (ZEROS, {}),
    "both-bounds": (ZEROS, {**ABS, "rel_error_bound": 0.1}),
    "negative": (ZEROS, {"error_bound": -1.0}),
    "nan": (np.full((4, 4), np.nan, dtype=np.float32), ABS),
    "inf": (np.full((4, 4), np.inf), ABS),
    "5-d": (np.zeros((2,) * 5), ABS),
}


@pytest.mark.parametrize("case", sorted(INVALID))
@pytest.mark.parametrize("codec", LIBRARY_CODECS)
def test_a_codec_admits_only_finite_floats_under_one_positive_bound(codec, case):
    data, kwargs = INVALID[case]
    with pytest.raises(CompressionError):
        get_compressor(codec).compress(data, **kwargs)


@pytest.mark.parametrize("codec", LIBRARY_CODECS)
def test_a_codec_decodes_only_its_own_streams(codec):
    data = field("smooth", (8, 8), np.float32)
    blob = get_compressor(codec).compress(data, error_bound=0.1)
    for other in LIBRARY_CODECS:
        if other != codec:
            with pytest.raises(DecompressionError, match="codec id"):
                get_compressor(other).decompress(blob)

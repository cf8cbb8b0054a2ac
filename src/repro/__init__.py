"""repro — a from-scratch reproduction of QoZ (SC22).

QoZ is a dynamic quality-metric-oriented error-bounded lossy compression
framework for scientific floating-point datasets (Liu et al., SC 2022).
This package implements the QoZ compressor, the SZ3 interpolation compressor
it extends, the SZ2.1 / ZFP / MGARD+ baselines it is evaluated against, the
shared quantization + entropy-coding pipeline, quality metrics, synthetic
stand-ins for the paper's six application datasets, a parallel dump/load
performance model, and a chunked out-of-core container with random-access
decompression (:mod:`repro.chunked`, ``python -m repro``).

Quickstart (the facade — :mod:`repro.api` — routes by arguments alone)::

    import numpy as np
    import repro

    data = np.random.default_rng(0).random((64, 64, 64)).astype(np.float32)
    blob = repro.compress(data, bound="rel:1e-3")
    recon = repro.decompress(blob)
    assert np.max(np.abs(recon - data)) <= 1e-3 * (data.max() - data.min())
    print(len(blob), repro.psnr(data, recon))

    # chunked container + multi-process fan-out, same call:
    blob = repro.compress(data, bound="rel:1e-3", chunks=32, processes=4)
    with repro.open(blob) as f:
        tile = f.chunk(0)
"""

from repro.errors import (
    ReproError,
    CompressionError,
    DecompressionError,
    ConfigurationError,
)

__version__ = "1.0.0"

# public names -> defining module (loaded lazily, PEP 562, so that the
# encoding/metrics substrates can be used without importing every codec)
_LAZY = {
    "compress": "repro.api",
    "decompress": "repro.api",
    "open": "repro.api",
    "ErrorBound": "repro.utils",
    "Compressor": "repro.compressors.base",
    "get_compressor": "repro.compressors.base",
    "available_compressors": "repro.compressors.base",
    "SZ2": "repro.compressors.sz2",
    "SZ3": "repro.compressors.sz3",
    "ZFP": "repro.compressors.zfp",
    "MGARDPlus": "repro.compressors.mgard",
    "QoZ": "repro.core.qoz",
    "FrozenPlan": "repro.core.plan_cache",
    "ChunkedFile": "repro.chunked",
    "psnr": "repro.metrics",
    "ssim": "repro.metrics",
    "error_autocorrelation": "repro.metrics",
    "compression_ratio": "repro.metrics",
    "bit_rate": "repro.metrics",
}

__all__ = [
    "ReproError",
    "CompressionError",
    "DecompressionError",
    "ConfigurationError",
    "__version__",
    *sorted(_LAZY),
]


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__

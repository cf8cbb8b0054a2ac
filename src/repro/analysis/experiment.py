"""One rate-distortion measurement: the engine behind the paper-claim ledger."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressors.base import Compressor
from repro.metrics import (
    bit_rate,
    compression_ratio,
    error_autocorrelation,
    max_abs_error,
    psnr,
    ssim,
)


@dataclass
class RatePoint:
    """One (error bound -> compression result) measurement."""

    abs_eb: float
    bit_rate: float
    compression_ratio: float
    psnr: float
    ssim: float
    autocorr: float
    max_error: float


def evaluate_once(
    codec: Compressor,
    data: np.ndarray,
    rel_eb: float,
    compute_ssim: bool = True,
) -> RatePoint:
    """Compress/decompress once and collect every evaluation metric."""
    blob = codec.compress(data, rel_error_bound=rel_eb)
    recon = codec.decompress(blob)
    vrange = float(data.max() - data.min())
    return RatePoint(
        abs_eb=rel_eb * vrange,
        bit_rate=bit_rate(data, blob),
        compression_ratio=compression_ratio(data, blob),
        psnr=psnr(data, recon),
        ssim=ssim(data, recon) if compute_ssim else float("nan"),
        autocorr=error_autocorrelation(data, recon),
        max_error=max_abs_error(data, recon),
    )

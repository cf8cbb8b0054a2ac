"""Quality metrics used for rate-distortion evaluation (paper §III).

PSNR/NRMSE, SSIM, lag-k autocorrelation of compression errors, plus
bit-rate / compression-ratio helpers and the error-distribution histogram
used to verify strict error-bound compliance (paper Fig. 7).
"""

from repro.metrics.psnr import mse, nrmse, psnr
from repro.metrics.ssim import ssim, ssim_reference
from repro.metrics.autocorr import error_autocorrelation, autocorrelation_profile
from repro.metrics.rate import (
    bit_rate,
    compression_ratio,
    error_histogram,
    max_abs_error,
)

__all__ = [
    "mse",
    "nrmse",
    "psnr",
    "ssim",
    "ssim_reference",
    "error_autocorrelation",
    "autocorrelation_profile",
    "bit_rate",
    "compression_ratio",
    "error_histogram",
    "max_abs_error",
]

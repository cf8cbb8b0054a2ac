"""Autocorrelation of compression errors (paper Eq. 4).

Users prefer compression errors that look like white noise; the lag-k
autocorrelation of the error field quantifies the deviation from that
ideal (lower |AC| is better).
"""

from __future__ import annotations

import numpy as np


def error_autocorrelation(
    original: np.ndarray, reconstructed: np.ndarray, lag: int = 1
) -> float:
    """Lag-``lag`` autocorrelation of the flattened compression errors.

    Returns 0 for a constant error field (no correlation structure).
    """
    e = (
        np.asarray(original, dtype=np.float64) - np.asarray(reconstructed, np.float64)
    ).ravel()
    return _autocorr(e, lag)


def autocorrelation_profile(
    original: np.ndarray, reconstructed: np.ndarray, max_lag: int = 16
) -> np.ndarray:
    """AC at lags 1..max_lag (Z-checker style profile)."""
    e = (
        np.asarray(original, dtype=np.float64) - np.asarray(reconstructed, np.float64)
    ).ravel()
    return np.array([_autocorr(e, k) for k in range(1, max_lag + 1)])


def _autocorr(e: np.ndarray, lag: int) -> float:
    if lag <= 0:
        raise ValueError("lag must be positive")
    if e.size <= lag:
        return 0.0
    mu = e.mean()
    d = e - mu
    # einsum, not np.dot: this scores tuning trials, and a BLAS ddot is
    # threaded (slow to start, slower in forked workers) and sums in an
    # order that depends on the host's library and thread count
    denom = float(np.einsum("i,i->", d, d))
    if denom == 0.0:
        return 0.0
    num = float(np.einsum("i,i->", d[:-lag], d[lag:]))
    return num / denom

"""Vectorized 1-D interpolation kernels for the multi-level predictor.

A prediction pass works on a *line view*: an array whose last axis walks the
current level's grid (coordinate = index * stride).  Even indices are known
(reconstructed at coarser levels or earlier passes); odd indices are the
pass's targets.  ``predict_targets`` returns the predictions for all targets
from the even samples in one shot — boundary targets fall back to the
widest stencil available, mirroring SZ3's interpolation fallbacks:

========================  =============================================
stencil                   formula (unit spacing, predict at 0)
========================  =============================================
-3, -1, +1, +3 (cubic)    (-a + 9b + 9c - d) / 16
-1, +1, +3                3/8 b + 3/4 c - 1/8 d
-3, -1, +1                -1/8 a + 3/4 b + 3/8 c
-1, +1 (linear)           (b + c) / 2
-3, -1 (extrapolate)      1.5 b - 0.5 a
-1 (copy)                 b
========================  =============================================

All stencil weights are exact Lagrange coefficients, so the kernels
reproduce polynomials of matching degree exactly (tested property).
"""

from __future__ import annotations

import numpy as np

#: interpolation method identifiers (stream-stable)
LINEAR = 0
CUBIC = 1

METHOD_NAMES = {LINEAR: "linear", CUBIC: "cubic"}
METHOD_IDS = {v: k for k, v in METHOD_NAMES.items()}


def target_count(grid_len: int) -> int:
    """Number of odd-index targets on a line-view axis of length grid_len."""
    return grid_len // 2


def _linear_predict(even: np.ndarray, m: int) -> np.ndarray:
    """Linear prediction of the m odd targets from even samples."""
    ge = even.shape[-1]
    pred = np.empty(even.shape[:-1] + (m,), dtype=np.float64)
    m_int = min(m, ge - 1)  # targets with both neighbors
    if m_int > 0:
        pred[..., :m_int] = 0.5 * (even[..., :m_int] + even[..., 1 : m_int + 1])
    if m > m_int:  # single tail target without a right neighbor
        if ge >= 2:
            pred[..., m - 1] = 1.5 * even[..., ge - 1] - 0.5 * even[..., ge - 2]
        else:
            pred[..., m - 1] = even[..., 0]
    return pred


def _cubic_predict(even: np.ndarray, m: int) -> np.ndarray:
    """Cubic-spline prediction of the m odd targets from even samples."""
    ge = even.shape[-1]
    pred = np.empty(even.shape[:-1] + (m,), dtype=np.float64)
    # interior: needs even[j-1] .. even[j+2]
    jhi = min(m - 1, ge - 3)  # inclusive
    if jhi >= 1:
        a = even[..., 0:jhi]
        b = even[..., 1 : jhi + 1]
        c = even[..., 2 : jhi + 2]
        d = even[..., 3 : jhi + 3]
        pred[..., 1 : jhi + 1] = (-a + 9.0 * b + 9.0 * c - d) / 16.0
    # first target (no left-left sample)
    if m >= 1:
        if ge >= 3:
            pred[..., 0] = (
                0.375 * even[..., 0] + 0.75 * even[..., 1] - 0.125 * even[..., 2]
            )
        elif ge >= 2:
            pred[..., 0] = 0.5 * (even[..., 0] + even[..., 1])
        else:
            pred[..., 0] = even[..., 0]
    # tail targets beyond the interior range (j > ge - 3: no even[j + 2])
    for j in range(max(1, jhi + 1), m):
        if j + 1 <= ge - 1:
            pred[..., j] = (
                -0.125 * even[..., j - 1]
                + 0.75 * even[..., j]
                + 0.375 * even[..., j + 1]
            )
        else:
            pred[..., j] = 1.5 * even[..., j] - 0.5 * even[..., j - 1]
    return pred


def predict_targets(even: np.ndarray, m: int, method: int) -> np.ndarray:
    """Predict the ``m`` odd targets of a line view from its even samples.

    ``even``: float array ``(..., ge)`` of known samples along the last
    axis; ``m``: number of targets (``grid_len // 2``); ``method``:
    :data:`LINEAR` or :data:`CUBIC`.
    """
    even = np.asarray(even, dtype=np.float64)
    if m == 0:
        return np.empty(even.shape[:-1] + (0,), dtype=np.float64)
    if method == LINEAR:
        return _linear_predict(even, m)
    if method == CUBIC:
        return _cubic_predict(even, m)
    raise ValueError(f"unknown interpolation method {method}")

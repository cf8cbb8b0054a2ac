"""Structural Similarity Index for N-dimensional scientific fields.

Implements Wang et al.'s SSIM (paper Eq. 2-3) with a uniform sliding
window, generalized to 1-D..4-D arrays.  ``batch=True`` treats axis 0 as a
stack of independent blocks (windows never cross block boundaries), which
is how QoZ's tuner scores SSIM on sampled blocks.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

# scipy.ndimage is imported inside the functions: `import repro.core.qoz`
# reaches this module through the tuner, and scipy.ndimage is most of that
# import's cost — metric="cr" users, pool workers and the server never
# score SSIM.

#: Wang et al. default stabilization constants
K1 = 0.01
K2 = 0.03
DEFAULT_WINDOW = 7


class SsimReference(NamedTuple):
    """The terms of SSIM that depend on the original alone."""

    win: List[int]  # per-axis window, clipped to the array
    mu_x: np.ndarray
    mu_x_sq: np.ndarray  # mu_x * mu_x
    two_mu_x: np.ndarray  # 2.0 * mu_x
    var_x: np.ndarray


def ssim_reference(
    original: np.ndarray, window: int = DEFAULT_WINDOW, batch: bool = False
) -> SsimReference:
    """Precompute the original-only terms for repeated :func:`ssim` calls.

    Scoring many reconstructions of one original (QoZ's tuner: every
    trial against the same sampled blocks) needs two of the five window
    filters and three of the elementwise products only once.  Each term
    is the exact sub-expression :func:`ssim` evaluates, so a score taken
    through a reference equals the plain one bit for bit.
    """
    from scipy.ndimage import uniform_filter

    x = np.asarray(original, dtype=np.float64)
    size = [window] * x.ndim
    if batch:
        size[0] = 1
    win = np.minimum(size, x.shape).tolist()
    mu_x = uniform_filter(x, size=win)
    mu_xx = uniform_filter(x * x, size=win)
    mu_x_sq = mu_x * mu_x
    return SsimReference(
        win=win,
        mu_x=mu_x,
        mu_x_sq=mu_x_sq,
        two_mu_x=2.0 * mu_x,
        var_x=np.maximum(mu_xx - mu_x_sq, 0.0),
    )


def ssim(
    original: np.ndarray,
    reconstructed: np.ndarray,
    data_range: float | None = None,
    window: int = DEFAULT_WINDOW,
    batch: bool = False,
    reference: SsimReference | None = None,
) -> float:
    """Mean SSIM between two arrays.

    ``data_range`` defaults to the original's value range (SSIM of a
    constant field against itself is defined as 1).  ``reference`` is
    :func:`ssim_reference` of the same ``original``, ``window`` and
    ``batch``; passing it changes the cost, never the value.
    """
    x = np.asarray(original, dtype=np.float64)
    y = np.asarray(reconstructed, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    if data_range is None:
        data_range = float(x.max() - x.min())
    if data_range == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    from scipy.ndimage import uniform_filter

    if reference is None:
        reference = ssim_reference(x, window, batch)
    elif reference.var_x.shape != x.shape:
        raise ValueError("reference was built from a different original")
    win, mu_x, mu_x_sq, two_mu_x, var_x = reference
    mu_y = uniform_filter(y, size=win)
    mu_yy = uniform_filter(y * y, size=win)
    mu_xy = uniform_filter(x * y, size=win)

    mu_y_sq = mu_y * mu_y
    var_y = np.maximum(mu_yy - mu_y_sq, 0.0)
    cov = mu_xy - mu_x * mu_y

    c1 = (K1 * data_range) ** 2
    c2 = (K2 * data_range) ** 2
    num = (two_mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x_sq + mu_y_sq + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))

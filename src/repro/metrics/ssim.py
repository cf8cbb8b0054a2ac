"""Structural Similarity Index for N-dimensional scientific fields.

Implements Wang et al.'s SSIM (paper Eq. 2-3) with a uniform sliding
window, generalized to 1-D..4-D arrays.  ``batch=True`` treats axis 0 as a
stack of independent blocks (windows never cross block boundaries), which
is how QoZ's tuner scores SSIM on sampled blocks.

The window means come from :func:`_box_means`, a NumPy box filter that
returns the same bits as ``scipy.ndimage.uniform_filter`` (reflect mode,
origin 0), so NumPy is the only runtime dependency.  It runs SciPy's
recurrence: axes in ascending order, and along each line of ``n`` points a
window of ``w`` with ``s1 = w // 2`` points before the centre and
``s2 = w - s1 - 1`` after it, over the line extended by reflection
(``d c b a | a b c d | d c b a``)::

    tmp = 0.0
    tmp += ext[0]; ...; tmp += ext[w - 1]         # first window, in order
    out[0] = tmp / w
    tmp += (ext[i - 1 + w] - ext[i - 1])          # i = 1 .. n - 1
    out[i] = tmp / w

Every value is the same IEEE-754 operation on the same operands in the
same order as SciPy's C loop, so the results agree bit for bit, signed
zeros and infinities included; a NaN lands where SciPy's does, though
which of two NaNs a sum returns is fixed by neither C nor NumPy
(``tests/metrics/test_box_mean.py`` holds SciPy as the reference).  Only
the vectorisation differs: all lines of an axis advance together, one
ufunc call per position, on rows laid out contiguously.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.utils import value_range

#: Wang et al. default stabilization constants
K1 = 0.01
K2 = 0.03
DEFAULT_WINDOW = 7

#: bytes one piece of a pass works in: a pass takes its lines in pieces
#: whose source rows and running sums fit a core's 2 MB L2 together
#: (EXPERIMENTS.md §23 has 1 and 4 MB against it)
_PIECE_BYTES = 1 << 21


def _box_means(
    out: np.ndarray,
    win: Sequence[int],
    terms: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
) -> np.ndarray:
    """Write the box mean of each term into ``out[j]`` and return ``out``.

    Term ``(a, b)`` is the product ``a * b`` and ``(a, None)`` is ``a``;
    all are float64 of one shape, ``out`` is C-contiguous ``(len(terms),)
    + shape``, and ``win[i]`` (at most ``shape[i]``) is the window along
    axis ``i``.  Each mean equals ``scipy.ndimage.uniform_filter(term,
    size=win)`` bit for bit.  An axis with window 1 is left as SciPy leaves
    it, and must come before the filtered axes or have extent 1, as
    SSIM's batch axis and clipped windows do.

    Every pass reads its axis laid out first, so that position ``i`` of
    all lines is one contiguous row, and its division writes the result
    with that axis moved last: the layouts rotate, from the filtered axes
    first (where the products are written) to ``out``'s C order after the
    last pass.  Two buffers, ``out`` and a spare, take turns.
    """
    full = [1, *win]
    axes = [i for i, w in enumerate(full) if w > 1]
    rest = [i for i, w in enumerate(full) if w == 1]
    if not out.transpose(rest + axes).flags.c_contiguous:
        raise ValueError("out must be C-contiguous with its window-1 axes first")
    # pass p reads its input laid out axes[p:] + rest + axes[:p]; ``out``
    # holds the last pass's output, the spare the one before, and so on
    bufs = [out.reshape(-1), np.empty(out.size) if axes else None]
    first = axes + rest
    into = bufs[len(axes) % 2].reshape([out.shape[i] for i in first])
    into = into.transpose(np.argsort(first))
    for j, (a, b) in enumerate(terms):
        if b is None:
            np.positive(a, out=into[j])
        else:
            np.multiply(a, b, out=into[j])
    for p, axis in enumerate(axes):
        n = out.shape[axis]
        src = bufs[(len(axes) - p) % 2].reshape(n, -1)
        dst = bufs[(len(axes) - p - 1) % 2].reshape(-1, n)
        _box_pass(src, dst, full[axis])
    return out


def _box_pass(src: np.ndarray, dst: np.ndarray, w: int) -> None:
    """``dst[l, i]`` = the window-``w`` mean at position ``i`` of line ``l``,
    whose points are the column ``src[:, l]``.

    Lines go in pieces that fit :data:`_PIECE_BYTES`.  The running sum of
    a piece is one row per position: the first window summed in order
    over the reflected rows, the differences (entering - leaving) one
    subtraction for the interior and one per reflected position, then
    one ``add`` per position.  The division writes it transposed.
    """
    n, lines = src.shape
    s1 = w // 2
    s2 = w - s1 - 1

    def row(t: int) -> int:  # SciPy's 'reflect': d c b a | a b c d | d c b a
        return -t - 1 if t < 0 else 2 * n - 1 - t if t >= n else t

    width = max(1, _PIECE_BYTES // (16 * n))
    sums = np.empty(n * min(width, lines))
    for c0 in range(0, lines, width):
        c1 = min(c0 + width, lines)
        rows = src[:, c0:c1]
        run = sums[: n * (c1 - c0)].reshape(n, c1 - c0)
        head = run[0]
        np.add(rows[row(-s1)], 0.0, out=head)  # 0.0 + -0.0 is +0.0, as in C
        for t in range(1 - s1, w - s1):
            np.add(head, rows[row(t)], out=head)
        np.subtract(rows[w:], rows[: n - w], out=run[s1 + 1:n - s2])
        for i in [*range(1, s1 + 1), *range(n - s2, n)]:
            np.subtract(rows[row(i - 1 + w - s1)], rows[row(i - 1 - s1)], out=run[i])
        for i in range(1, n):
            np.add(run[i - 1], run[i], out=run[i])
        np.divide(run.T, w, out=dst[c0:c1])


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
    means and three of the elementwise products only once.  Each term
    is the exact sub-expression :func:`ssim` evaluates, so a score taken
    through a reference equals the plain one bit for bit.
    """
    x = np.asarray(original, dtype=np.float64)
    size = [window] * x.ndim
    if batch:
        size[0] = 1
    win = np.minimum(size, x.shape).tolist()
    mu_x, mu_xx = _box_means(np.empty((2,) + x.shape), win, [(x, None), (x, x)])
    mu_x_sq = mu_x * mu_x
    var_x = np.subtract(mu_xx, mu_x_sq, out=mu_xx)
    np.maximum(var_x, 0.0, out=var_x)
    return SsimReference(
        win=win, mu_x=mu_x, mu_x_sq=mu_x_sq, two_mu_x=2.0 * mu_x, var_x=var_x
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
        data_range = value_range(x)
    if data_range == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    if reference is None:
        reference = ssim_reference(x, window, batch)
    elif reference.var_x.shape != x.shape:
        raise ValueError("reference was built from a different original")
    win, mu_x, mu_x_sq, two_mu_x, var_x = reference
    # rows 0-2 take the means of y, y^2 and x y, rows 3-4 the products
    # Eq. 2-3 needs next to them
    terms = np.empty((5,) + x.shape)
    mu_y, mu_yy, mu_xy = _box_means(terms[:3], win, [(y, None), (y, y), (x, y)])

    # the expressions of Eq. 2-3 term by term, as
    #   var_y = max(mu_yy - mu_y^2, 0), cov = mu_xy - mu_x mu_y,
    #   num = (2 mu_x mu_y + c1)(2 cov + c2),
    #   den = (mu_x^2 + mu_y^2 + c1)(var_x + var_y + c2),
    # each written over a row it no longer needs
    c1 = (K1 * data_range) ** 2
    c2 = (K2 * data_range) ** 2
    mu_y_sq = np.multiply(mu_y, mu_y, out=terms[3])
    var_y = np.subtract(mu_yy, mu_y_sq, out=mu_yy)
    np.maximum(var_y, 0.0, out=var_y)
    num = np.multiply(mu_x, mu_y, out=terms[4])
    cov = np.subtract(mu_xy, num, out=mu_xy)
    np.multiply(two_mu_x, mu_y, out=num)
    num += c1
    cov *= 2.0
    cov += c2
    num *= cov
    den = np.add(mu_x_sq, mu_y_sq, out=mu_y_sq)
    den += c1
    np.add(var_x, var_y, out=var_y)
    var_y += c2
    den *= var_y
    num /= den  # the SSIM map, C-ordered: np.mean sums it as before
    return float(np.mean(num))

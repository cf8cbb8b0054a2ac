"""Spectral synthesis of Gaussian random fields.

A field with isotropic power spectrum ``P(k) ~ k**(-slope)`` is generated
by shaping white noise in Fourier space and transforming back.  The slope
controls smoothness — and therefore compressibility under prediction-based
coders: slope 5 is very smooth (Miranda-like), slope 3 is moderately rough
(climate-like), slope 2 approaches noise (hard).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def gaussian_random_field(
    shape: Sequence[int],
    slope: float = 3.0,
    seed: int = 0,
    kmin: float = 1.0,
) -> np.ndarray:
    """Zero-mean, unit-std Gaussian random field with ``P(k) ~ k**-slope``.

    ``kmin`` (in units of the fundamental frequency) suppresses the power
    below that wavenumber, controlling the largest structure size.
    """
    shape = tuple(int(n) for n in shape)
    ndim = len(shape)
    rng = np.random.default_rng(seed)
    spec = np.fft.rfftn(rng.standard_normal(shape))
    # |k| on the rfftn layout: the per-axis frequencies broadcast, their
    # squares summed in axis order into one array
    k = np.zeros((1,) * ndim)
    for axis, n in enumerate(shape):
        g = np.fft.rfftfreq(n) if axis == ndim - 1 else np.fft.fftfreq(n)
        g = g.reshape((1,) * axis + (-1,) + (1,) * (ndim - axis - 1))
        k = k + g * g
    np.sqrt(k, out=k)
    kfund = 1.0 / max(shape)
    k0 = kmin * kfund
    # the amplitude, in k's own buffer; k = 0 only at the origin
    np.maximum(k, k0, out=k)
    k **= -slope / 2.0
    k.flat[0] = 0.0
    spec *= k
    del k
    # NumPy 2.x deprecates s= without an explicit axes= sequence
    field = np.fft.irfftn(spec, s=shape, axes=tuple(range(ndim)))
    del spec
    std = field.std()
    if std > 0:
        field /= std
    field -= field.mean()
    return field

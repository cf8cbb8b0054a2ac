"""Inputs several test files share: the library's codecs and a smooth
field (``tests/``, the root conftest's folder, is on pytest's path)."""

import numpy as np

from repro.compressors.base import available_compressors, get_compressor

#: the library's codecs: what "every codec" means to the contract
#: properties (test modules register codecs of their own)
LIBRARY_CODECS = [
    name for name in available_compressors()
    if type(get_compressor(name)).__module__.startswith("repro.")
]


def walk(shape, seed=0, dtype=np.float64):
    """A smooth field scaled to [-1, 1]: a random walk along the first
    axis plus one along the second (the first again at 1-D)."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    x += np.cumsum(rng.standard_normal(shape), axis=min(1, len(shape) - 1))
    return (x / np.abs(x).max()).astype(dtype)

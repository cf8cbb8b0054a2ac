"""Shared helpers of the two printing benchmarks (Fig. 11's images and
Table IV's throughput).

Shapes are reduced stand-ins (set ``REPRO_BENCH_SCALE=2`` to double every
extent).  Each bench prints its table and writes it to
``benchmarks/results/<name>.txt``.  The paper's orderings are asserted by
``tests/paper/test_claims.py``, not here.
"""

import os
import pathlib

from repro.datasets import get_dataset

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "1"))

#: reduced per-dataset shapes (paper shapes are 10-100x larger per dim)
BENCH_SHAPES = {
    "rtm": (48, 64, 64),
    "miranda": (48, 64, 64),
    "cesm": (256, 512),
    "scale": (16, 128, 128),
    "nyx": (64, 64, 64),
    "hurricane": (24, 64, 64),
}

_CACHE = {}


def bench_dataset(name: str):
    """Cached scaled dataset instance."""
    if name not in _CACHE:
        shape = tuple(n * SCALE for n in BENCH_SHAPES[name])
        _CACHE[name] = get_dataset(name, shape=shape, seed=0)
    return _CACHE[name]


RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

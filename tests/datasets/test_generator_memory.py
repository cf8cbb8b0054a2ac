"""How much memory generating a field takes.

The generators compute in place (DESIGN.md §3), so one call peaks at a
few float64 copies of its field: the Gaussian random field's two FFTs
set it.  Tier-1 bounds the traced peak of one call at the benchmark
suite's single-field shapes; NumPy reports its buffers to tracemalloc.
The ``soak`` check generates the paper's two largest fields in a child
interpreter and bounds its resident peak above imports.
"""

import json
import math
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from repro.datasets import gaussian_random_field, get_dataset

#: the suite's single fields, padded as it generates them
#: (tests/datasets/test_generator_digests.py SUITE_SHAPES), with the
#: bound on one call's traced peak in float64 copies of the field; rtm
#: steps a wave solver that holds seven
BOUNDS = (
    ("nyx", (72, 72, 72), 4.5),
    ("miranda", (56, 72, 72), 4.5),
    ("scale", (24, 136, 136), 4.5),
    ("hurricane", (32, 72, 72), 4.5),
    ("cesm", (264, 520), 4.5),
    ("rtm", (56, 72, 72), 9.0),
)
GRF_BOUND = 3.5


def traced_peak(thunk) -> int:
    """Peak traced bytes while ``thunk()`` runs."""
    tracemalloc.start()
    try:
        thunk()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def copies(nbytes, shape) -> float:
    return nbytes / (8 * math.prod(shape))


@pytest.mark.parametrize(
    "name, shape, bound", BOUNDS, ids=[b[0] for b in BOUNDS]
)
def test_dataset_peak(name, shape, bound):
    peak = copies(traced_peak(lambda: get_dataset(name, shape=shape)), shape)
    assert peak <= bound, f"{name} {shape}: {peak:.2f} float64 copies"


@pytest.mark.parametrize("shape", [(4001,), (264, 520), (72, 72, 72)])
def test_gaussian_random_field_peak(shape):
    peak = copies(traced_peak(lambda: gaussian_random_field(shape)), shape)
    assert peak <= GRF_BOUND, f"{shape}: {peak:.2f} float64 copies"


CHILD = textwrap.dedent("""
    import json, sys, time
    from repro.datasets import get_dataset

    def hwm():
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024

    name, shape = sys.argv[1], tuple(json.loads(sys.argv[2]))
    base = hwm()
    t0 = time.perf_counter()
    get_dataset(name, shape=shape)
    seconds = time.perf_counter() - t0
    print(json.dumps({"above_imports": hwm() - base, "seconds": seconds}))
""")


@pytest.mark.soak
@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc VmHWM"
)
@pytest.mark.parametrize(
    "name, shape", [("nyx", (512, 512, 512)), ("scale", (98, 1200, 1200))]
)
def test_paper_shape_peak(name, shape, subprocess_env):
    """The paper's largest fields fit in 3.5 float64 copies above imports."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, name, json.dumps(shape)],
        env=subprocess_env, capture_output=True, text=True, check=True,
        timeout=600,
    )
    run = json.loads(out.stdout)
    peak = copies(run["above_imports"], shape)
    print(f"{name} {shape}: {run['seconds']:.1f} s, {peak:.2f} float64 copies")
    assert peak <= 3.5

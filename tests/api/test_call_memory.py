"""How much memory one single-array call takes beyond its data.

A QoZ compress holds the float64 work array (2x a float32 input), the
quantization codes in the quantizer's narrow type (uint16, 0.5x), the
pass temporaries and the entropy coder's token arrays; a decompress holds
the same work array, the decoded codes and the Huffman decoder's block
scratch (DESIGN.md §4, §6).  Tier-1 bounds the traced peak of one call at
96^3: a code array widened back to int64 (+1.5x) or a float64 copy of
the code stream on decode (+2x) crosses it.  NumPy reports its buffers
to tracemalloc.  The ``soak`` check runs both calls at miranda's paper
shape in child interpreters and bounds their resident peak above imports.
"""

import json
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import repro
from repro.datasets import get_dataset

SHAPE = (96, 96, 96)
#: one compress's traced peak, in float32 inputs (6.8x measured)
COMPRESS_BOUND = 7.5
#: one decompress's traced peak beyond the array it returns, likewise
#: (4.4-5.7x measured: the decoder's kept 5.2 MB scratch is 1.5x of nyx)
DECOMPRESS_BOUND = 6.5


def traced_peak(thunk):
    """``(result, peak traced bytes)`` of ``thunk()``."""
    tracemalloc.start()
    try:
        out = thunk()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", autouse=True)
def warm():
    """Imports and first-call set-up stay out of the measurements."""
    x = get_dataset("nyx", shape=(16, 16, 16)).astype(np.float32)
    repro.decompress(repro.compress(x, bound="rel:1e-3"))


@pytest.mark.parametrize("name", ["nyx", "miranda"])
def test_one_call_peak(name):
    x = get_dataset(name, shape=SHAPE).astype(np.float32)
    blob, compress_peak = traced_peak(
        lambda: repro.compress(
            x, codec="qoz", bound="rel:1e-3", codec_kwargs={"metric": "cr"}
        )
    )
    y, decompress_peak = traced_peak(lambda: repro.decompress(blob))
    compress = compress_peak / x.nbytes
    decompress = (decompress_peak - y.nbytes) / x.nbytes
    assert compress <= COMPRESS_BOUND, f"{name}: compress {compress:.2f}x"
    assert decompress <= DECOMPRESS_BOUND, f"{name}: decompress {decompress:.2f}x"


CHILD = textwrap.dedent("""
    import json, sys, time
    import numpy as np
    import repro
    from repro.datasets import get_dataset

    def hwm():
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024

    step, path, shape = sys.argv[1], sys.argv[2], tuple(json.loads(sys.argv[3]))
    if step == "generate":
        np.save(path + ".npy", get_dataset("miranda", shape=shape).astype(np.float32))
        sys.exit()
    tiny = get_dataset("miranda", shape=(16, 16, 16)).astype(np.float32)
    repro.decompress(repro.compress(tiny, bound="rel:1e-3"))  # imports, set-up
    base = hwm()
    t0 = time.perf_counter()
    if step == "compress":
        x = np.load(path + ".npy")
        blob = repro.compress(
            x, codec="qoz", bound="rel:1e-3", codec_kwargs={"metric": "cr"}
        )
        with open(path + ".qoz", "wb") as fh:
            fh.write(blob)
        held = x.nbytes  # the input, which the caller holds
    else:
        with open(path + ".qoz", "rb") as fh:
            blob = fh.read()
        y = repro.decompress(blob)
        held = len(blob) + y.nbytes  # the stream and the returned array
    seconds = time.perf_counter() - t0
    print(json.dumps({"above": hwm() - base - held, "seconds": seconds}))
""")

#: the paper's miranda shape, and the resident peak above imports and the
#: data a call holds, in float32 inputs.  ROADMAP item 12 targets 4.5x and
#: 4x; decompress meets it (3.6x), compress does not (6.9x): the float64
#: work array and one half-field pass's temporaries hold the rest
#: (EXPERIMENTS.md §26).
PAPER_SHAPE = (256, 384, 384)
SOAK_BOUNDS = {"compress": 7.5, "decompress": 4.0}


@pytest.mark.soak
@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc VmHWM"
)
def test_paper_shape_peak(tmp_path, subprocess_env):
    path, shape = str(tmp_path / "miranda"), json.dumps(PAPER_SHAPE)
    nbytes = 4 * np.prod(PAPER_SHAPE)
    for step in ("generate", "compress", "decompress"):
        out = subprocess.run(
            [sys.executable, "-c", CHILD, step, path, shape],
            env=subprocess_env, capture_output=True, text=True, check=True,
            timeout=900,
        )
        if step == "generate":
            continue
        run = json.loads(out.stdout)
        ratio = run["above"] / nbytes
        print(f"miranda {PAPER_SHAPE} {step}: {run['seconds']:.1f} s, "
              f"{ratio:.2f}x the float32 input")
        assert ratio <= SOAK_BOUNDS[step], f"{step}: {ratio:.2f}x"

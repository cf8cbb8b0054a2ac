"""Peak-allocation bounds for the compress path (mirror of
`tests/encoding/test_decode_memory.py`).

Chunked compression of a memory-mapped field must keep peak array traffic
proportional to one chunk (plus the global sample-block stack that plan
derivation holds), never to the field: the serial writer materializes one
chunk at a time, plan derivation reads only block-sized samples, and
`interp_compress(keep_work=False)` releases the full-resolution float64
reconstruction before the payload is entropy-coded.

numpy >= 1.22 routes array allocations through tracemalloc, so these
budgets measure real array traffic; the memmap input itself is mmap-backed
and invisible to tracemalloc, which is exactly what lets the budget be
field-size-independent.
"""

import tracemalloc

import numpy as np

import repro
from repro.core.engine import InterpPlan, LevelPlan, interp_compress

#: fixed scratch allowance (decode/encode tables, small streams, sample
#: blocks) independent of how large the field is
_SCRATCH_FIXED = 8e6  # bytes
#: per-chunk allowance: float64 work copy + the codes + a few encode
#: passes over the chunk
_CHUNK_FACTOR = 24.0  # x one chunk's float64 bytes


def _field_memmap(tmp_path, shape, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "field.npy"
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float64, shape=shape
    )
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    out[...] = x / np.abs(x).max()
    out.flush()
    del out
    return np.load(path, mmap_mode="r")


def test_chunked_compress_peak_is_chunk_plus_sample_sized(tmp_path):
    """Compressing a 16 MB memmapped field through 256 KB chunks must keep
    traced memory proportional to one chunk plus the sampled-block stack
    that plan derivation tunes on — never to the field.

    The sample stack is rate * field by the paper's §VI-A semantics, so it
    appears explicitly in the budget; the companion scaling test below is
    what proves no hidden field-proportional term exists.
    """
    from repro.core.sampling import sample_blocks

    data = _field_memmap(tmp_path, (128, 128, 128), seed=20)
    chunk_bytes = 32 * 32 * 32 * 8
    blocks, _ = sample_blocks(data, 32, 0.005)
    sample_bytes = blocks.nbytes
    del blocks
    out = tmp_path / "field.rpz"

    repro.compress(data, file=out, codec="qoz", chunks=32, bound=1e-3)
    tracemalloc.start()
    repro.compress(data, file=out, codec="qoz", chunks=32, bound=1e-3)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    budget = _CHUNK_FACTOR * chunk_bytes + 8.0 * sample_bytes + _SCRATCH_FIXED
    assert peak <= budget, (
        f"compress peak {peak / 1e6:.1f} MB exceeds {budget / 1e6:.1f} MB "
        f"for {chunk_bytes / 1e6:.1f} MB chunks + "
        f"{sample_bytes / 1e6:.1f} MB sample stack"
    )


def test_compress_peak_does_not_scale_with_field_size(tmp_path):
    """Same chunk size, 8x the field: peak traced memory must stay put."""

    def peak_for(shape, seed):
        data = _field_memmap(tmp_path, shape, seed)
        out = tmp_path / f"f{shape[0]}.rpz"
        repro.compress(
            data, file=out, codec="sz3", chunks=32, bound=1e-3
        )
        tracemalloc.start()
        repro.compress(
            data, file=out, codec="sz3", chunks=32, bound=1e-3
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    small = peak_for((64, 64, 64), seed=21)
    large = peak_for((128, 128, 128), seed=22)
    assert large < 2 * small + _SCRATCH_FIXED


def test_keep_work_false_drops_the_reconstruction():
    """`interp_compress(keep_work=False)` must shed one full-field float64
    array relative to the default, and return identical streams."""
    rng = np.random.default_rng(23)
    data = np.cumsum(rng.standard_normal((64, 64, 64)), axis=0)
    data /= np.abs(data).max()
    plan = InterpPlan(levels={1: LevelPlan(eb=1e-3)}, anchor_stride=0)

    def run(keep):
        tracemalloc.start()
        result = interp_compress(data, plan, keep_work=keep)
        retained, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return result, retained

    (codes_a, out_a, known_a, work_a), retained_keep = run(True)
    (codes_b, out_b, known_b, work_b), retained_drop = run(False)
    np.testing.assert_array_equal(codes_a, codes_b)
    np.testing.assert_array_equal(out_a, out_b)
    np.testing.assert_array_equal(known_a, known_b)
    assert work_a is not None and work_a.shape == data.shape
    assert work_b is None
    # what survives the call (and would sit alive through entropy coding)
    # must shrink by the full-field float64 reconstruction
    assert retained_keep - retained_drop >= 0.9 * data.nbytes

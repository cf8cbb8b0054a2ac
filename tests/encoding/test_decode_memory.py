"""Peak-allocation bounds for the entropy codec, decode and encode.

The pre-vectorization ``BitReader`` expanded the whole packed stream into
an 8x uint8 bit array, and the Huffman decoder materialized Python lists
per byte (and per bit for long-code tables) — peak decode memory scaled
at ~30-90x the compressed payload.  The byte-windowed reader and the
block-based decoder keep scratch bounded by the (constant) decode block
size instead, which is what makes the chunked out-of-core path's
"peak memory ~ one chunk" guarantee true on the read side.

The encode side has its own budget: ``BitWriter.getvalue`` used to
expand every field into one 8-byte array element per *bit*, several
arrays deep; the word-level packer works per field, and the budget keeps
a per-bit expansion from coming back unnoticed.

numpy >= 1.22 routes array allocations through tracemalloc, so these
budgets measure real array traffic, not just Python objects.
"""

import tracemalloc

import numpy as np
import pytest

import repro
from repro.chunked import ChunkedFile
from repro.encoding.codec import decode_symbol_stream, encode_symbol_stream

#: scratch allowance: a few int64 arrays of the decoder's block size plus
#: the reader's padded copy and window cache (all independent of stream
#: size); the old reader/decoder blow through this by an order of magnitude
_SCRATCH_BUDGET = 3.0  # x compressed size
_SCRATCH_FIXED = 12e6  # bytes


def _peak_extra(fn, *args):
    """Peak traced allocation of ``fn(*args)`` beyond its return value."""
    fn(*args)  # warm caches (decode tables etc.) out of the measurement
    tracemalloc.start()
    out = fn(*args)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - out.nbytes, out


def _high_entropy(rng):
    return rng.integers(0, 256, size=2_000_000).astype(np.int64)


def _rle_heavy(rng):
    dominant = rng.random(2_000_000) < 0.97
    return np.where(dominant, 5, rng.integers(0, 40, size=2_000_000)).astype(np.int64)


_STREAMS = [
    pytest.param(_high_entropy, id="high-entropy"),
    pytest.param(_rle_heavy, id="rle-heavy"),
]


@pytest.mark.parametrize("make_symbols", _STREAMS)
def test_symbol_stream_decode_allocation_is_bounded(make_symbols):
    rng = np.random.default_rng(7)
    syms = make_symbols(rng)
    blob = encode_symbol_stream(syms)
    extra, out = _peak_extra(decode_symbol_stream, blob)
    np.testing.assert_array_equal(out, syms)
    budget = _SCRATCH_BUDGET * len(blob) + _SCRATCH_FIXED
    assert extra <= budget, (
        f"decode scratch {extra / 1e6:.1f} MB exceeds "
        f"{budget / 1e6:.1f} MB for a {len(blob) / 1e6:.1f} MB stream"
    )


#: tracemalloc peak of ``encode_symbol_stream`` on the two streams above,
#: bytes, as measured at the parent of the word-level packer (per-bit
#: ``getvalue``: 466.1 MB and 41.7 MB) — the change itself peaks at 74.0 MB
#: and 20.6 MB (16 % and 49 %; what is left on the run-heavy stream is the
#: remapped copy of the 16 MB input)
_PARENT_ENCODE_PEAK = {"_high_entropy": 466.1e6, "_rle_heavy": 41.7e6}


@pytest.mark.parametrize("make_symbols", _STREAMS)
def test_symbol_stream_encode_allocation_is_bounded(make_symbols):
    syms = make_symbols(np.random.default_rng(7))
    encode_symbol_stream(syms)  # warm
    tracemalloc.start()
    blob = encode_symbol_stream(syms)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    np.testing.assert_array_equal(decode_symbol_stream(blob), syms)
    budget = 0.6 * _PARENT_ENCODE_PEAK[make_symbols.__name__]
    assert peak <= budget, (
        f"encode peak {peak / 1e6:.1f} MB exceeds {budget / 1e6:.1f} MB: "
        "a per-bit expansion is back in the packer or the tokenizer"
    )


def test_warm_huffman_decode_allocates_no_block_scratch():
    """The block-sized arrays are one per-thread scratch kept across calls
    (``huffman._block_scratch``): a warm decode allocates the reader's
    windows for a block and its output, nothing else block-sized — the
    five 1 MB rows a block works in used to be a dozen fresh arrays per
    block (7.2 MB peak beyond the output on this stream, 3.0 MB now), which
    is what tied decode speed to the allocator's state (EXPERIMENTS.md §12)."""
    from repro.encoding.bitstream import BitReader, BitWriter
    from repro.encoding.huffman import HuffmanCode

    syms = np.random.default_rng(3).integers(0, 256, size=200_000)
    code = HuffmanCode.from_symbols(syms, 256)
    writer = BitWriter()
    code.encode(syms, writer)
    blob = writer.getvalue()
    assert len(blob) * 8 > 8 * (1 << 17)  # several blocks
    extra, out = _peak_extra(lambda: code.decode(BitReader(blob), syms.size))
    np.testing.assert_array_equal(out, syms)
    assert extra <= 3.5e6, f"{extra / 1e6:.1f} MB of per-call decode scratch"


def test_decode_scratch_does_not_scale_with_stream_size():
    """Doubling the stream must not double the non-output scratch."""
    rng = np.random.default_rng(8)

    def stream(n):
        return encode_symbol_stream(rng.integers(0, 256, size=n).astype(np.int64))

    small, large = stream(500_000), stream(2_000_000)
    extra_small, _ = _peak_extra(decode_symbol_stream, small)
    extra_large, _ = _peak_extra(decode_symbol_stream, large)
    # 4x the stream; allow scratch to grow only by the output-independent
    # per-call terms (padded copy + token-side arrays), far below 4x
    assert extra_large < 2 * extra_small + _SCRATCH_FIXED


def test_single_chunk_decode_peak_is_chunk_sized():
    """Reading one chunk of a container never unpacks beyond that chunk."""
    rng = np.random.default_rng(9)
    x = np.cumsum(rng.standard_normal((96, 96, 96)), axis=0)
    data = (x / np.abs(x).max()).astype(np.float32)
    blob = repro.compress(data, codec="sz3", chunks=48, bound="rel:1e-3")
    with ChunkedFile(blob) as f:
        chunk_raw = int(np.prod(f.grid.chunk_shape)) * f.dtype.itemsize
        f.chunk(0)  # warm
        tracemalloc.start()
        out = f.chunk(0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert out.nbytes <= chunk_raw
    # reconstruction needs a few float64 copies of the chunk, never the
    # full field (8 chunks) or a super-linear bit expansion
    assert peak <= 6 * chunk_raw + _SCRATCH_FIXED

"""The entropy decoder stays vectorized, counted instead of timed.

A decoder that loops over symbols in Python runs at least one traced
line per symbol; the block decoder (DESIGN.md §6) runs a few lines per
block of bits plus one per anchor hop of its chain walk: ~0.10 per
symbol on the Zipf and byte streams, 0.20 and 0.36 on the 16- and
20-bit ones, whose long codewords make short chains.  Counting
``sys.settrace`` line events gives the same verdict on every host,
where a throughput gate depends on the machine's speed.
"""

import sys

import numpy as np
import pytest

from repro.encoding.codec import decode_symbol_stream, encode_symbol_stream

N_SYMBOLS = 500_000
#: traced Python lines per decoded symbol; a per-symbol loop costs >= 1
MAX_LINES_PER_SYMBOL = 0.5


def zipf_mid(rng):
    """Mid-entropy token stream: 700 symbols, Zipf(1.2) frequencies."""
    w = 1.0 / (np.arange(1, 701) ** 1.2)
    return rng.choice(700, p=w / w.sum(), size=N_SYMBOLS)


def byte_planes(rng):
    """Near-incompressible uniform bytes."""
    return rng.integers(0, 256, size=N_SYMBOLS)


def uniform_16_bit(rng):
    """About 16 bits per symbol: the short chains of long codewords."""
    return rng.integers(0, 1 << 16, size=N_SYMBOLS)


def uniform_20_bit(rng):
    """About 19 bits per symbol, past the 16-bit first-level table."""
    return rng.integers(0, 1 << 20, size=N_SYMBOLS)


def traced_lines(fn):
    """``(fn(), Python line events it ran)``, every frame counted."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        out = fn()
    finally:
        sys.settrace(previous)
    return out, lines


@pytest.mark.parametrize(
    "profile", [zipf_mid, byte_planes, uniform_16_bit, uniform_20_bit]
)
def test_decode_runs_fewer_python_lines_than_symbols(profile):
    syms = profile(np.random.default_rng(2022)).astype(np.int64)
    blob = encode_symbol_stream(syms)
    out, lines = traced_lines(lambda: decode_symbol_stream(blob))
    np.testing.assert_array_equal(out, syms)
    assert lines / N_SYMBOLS < MAX_LINES_PER_SYMBOL, lines

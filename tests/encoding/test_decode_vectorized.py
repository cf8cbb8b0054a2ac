"""The entropy decoder stays vectorized, counted instead of timed.

A decoder that loops over symbols in Python runs at least one traced
line per symbol; the block decoder (DESIGN.md §6) runs a fixed number
per block of bits, ~0.15 per symbol on these streams.  Counting
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


@pytest.mark.parametrize("profile", [zipf_mid, byte_planes])
def test_decode_runs_fewer_python_lines_than_symbols(profile):
    syms = profile(np.random.default_rng(2022)).astype(np.int64)
    blob = encode_symbol_stream(syms)
    out, lines = traced_lines(lambda: decode_symbol_stream(blob))
    np.testing.assert_array_equal(out, syms)
    assert lines / N_SYMBOLS < MAX_LINES_PER_SYMBOL, lines

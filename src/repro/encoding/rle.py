"""Zero-run tokenizer — the stand-in for SZ's zstd "dictionary" stage.

On quantization-index streams nearly all of zstd's gain over plain Huffman
comes from long runs of the dominant (perfect-prediction) bin.  We capture
exactly that effect with deflate-style run tokens: a run of the dominant
symbol with length ``L`` becomes token ``base + k`` where ``k = floor(log2
L)``, plus ``k`` extra bits storing ``L - 2**k``.  Every other symbol passes
through as a literal token.  The transform is fully vectorized both ways.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DecompressionError

#: number of run-length classes (supports runs up to 2**63 - 1)
RUN_CLASSES = 64


def _floor_log2(x: np.ndarray) -> np.ndarray:
    """Exact floor(log2(x)) for positive int64 values."""
    k = np.floor(np.log2(x.astype(np.float64))).astype(np.int64)
    # repair float rounding at class boundaries
    too_high = (x >> np.minimum(k, 62)) == 0
    k[too_high] -= 1
    too_low = (x >> np.minimum(k + 1, 62)) > 0
    k[too_low] += 1
    return k


def _run_lengths(symbols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(run start values, run lengths) of a 1-D symbol array."""
    n = symbols.size
    change = np.flatnonzero(symbols[1:] != symbols[:-1]) + 1
    starts = np.concatenate([[0], change])
    lens = np.diff(np.concatenate([starts, [n]]))
    return symbols[starts], lens


def tokenize_runs(
    symbols: np.ndarray, dominant: int, alphabet_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replace runs of ``dominant`` with run tokens.

    Returns ``(tokens, extra_values, extra_widths)`` where tokens live in
    ``[0, alphabet_size + RUN_CLASSES)`` and the extras encode run-length
    remainders (aligned with run tokens, in stream order).
    """
    symbols = np.ascontiguousarray(symbols, dtype=np.int64)
    if symbols.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.astype(np.uint64), empty.astype(np.uint8)
    vals, lens = _run_lengths(symbols)
    is_dom = vals == dominant
    k = np.zeros(lens.size, dtype=np.int64)
    if is_dom.any():
        k[is_dom] = _floor_log2(lens[is_dom])
    token_vals = np.where(is_dom, alphabet_size + k, vals)
    out_counts = np.where(is_dom, 1, lens)
    tokens = np.repeat(token_vals, out_counts)
    extra_values = (lens[is_dom] - (np.int64(1) << k[is_dom])).astype(np.uint64)
    extra_widths = k[is_dom].astype(np.uint8)
    return tokens, extra_values, extra_widths


def run_token_histogram(
    symbols: np.ndarray, dominant: int, counts: np.ndarray | None = None
) -> Tuple[np.ndarray, int]:
    """Token histogram + total extra bits of :func:`tokenize_runs`, without
    materializing the token stream.

    Literal tokens are exactly the non-dominant symbols (one per
    occurrence), so their histogram is the symbol histogram with the
    dominant bin zeroed; run tokens contribute one count per dominant run
    at class ``floor(log2(len))``.  Returns ``(freqs, extra_bits)`` where
    ``freqs`` lists literal counts (ascending symbol) followed by run-class
    counts (ascending class) — the same positive-entry sequence
    ``np.bincount(tokens)`` would produce, which is what makes the Shannon
    estimator over it bit-for-bit identical to scoring real tokens.
    """
    symbols = np.ascontiguousarray(symbols, dtype=np.int64)
    if counts is None:
        counts = np.bincount(symbols) if symbols.size else np.zeros(1, np.int64)
    literals = counts.copy()
    if dominant < literals.size:
        literals[dominant] = 0
    if symbols.size == 0:
        return literals, 0
    # the dominant runs are the gaps between neighbouring non-dominant
    # symbols (and the two ends of the stream) — the same lengths
    # :func:`_run_lengths` reports for them, without decomposing the
    # literal stretches the histogram already covers
    edges = np.flatnonzero(symbols != dominant)
    edges = np.concatenate([[-1], edges, [symbols.size]])
    gaps = np.diff(edges) - 1
    # index, not mask: on an unpredictable pattern the boolean gather is
    # several times slower than flatnonzero + take
    dom_lens = gaps[np.flatnonzero(gaps > 0)]
    if dom_lens.size == 0:
        return literals, 0
    k = _floor_log2(dom_lens)
    run_hist = np.bincount(k)
    return np.concatenate([literals, run_hist]), int(k.sum())


def detokenize_runs(
    tokens: np.ndarray,
    extra_values: np.ndarray,
    dominant: int,
    alphabet_size: int,
    expected_size: int | None = None,
) -> np.ndarray:
    """Inverse of :func:`tokenize_runs`.

    Every run length is validated *before* any expansion is allocated: a
    run token of class ``k`` must carry an extra value below ``2**k``
    (the tokenizer never emits more), and with ``expected_size`` given
    the run lengths must sum to exactly that many symbols.  A corrupt or
    malicious stream therefore raises :class:`DecompressionError` instead
    of silently mis-decoding or ballooning ``np.repeat`` into an
    attacker-controlled allocation.
    """
    tokens = np.ascontiguousarray(tokens, dtype=np.int64)
    if tokens.size == 0:
        if expected_size not in (None, 0):
            raise DecompressionError("run token stream decoded to 0 symbols")
        return np.zeros(0, dtype=np.int64)
    is_run = tokens >= alphabet_size
    k = tokens[is_run] - alphabet_size
    if (k >= RUN_CLASSES).any() or (tokens < 0).any():
        raise DecompressionError("corrupt run token stream")
    if int(is_run.sum()) != extra_values.size:
        raise DecompressionError("run-token/extras count mismatch")
    extras = extra_values.astype(np.int64, copy=False)
    if extras.size and (
        (extras < 0).any() or (extras >> np.minimum(k, 62)).any()
    ):
        raise DecompressionError("run length remainder out of range")
    lens = np.ones(tokens.size, dtype=np.int64)
    lens[is_run] = (np.int64(1) << k) + extras
    if (lens <= 0).any():  # int64 overflow from a hostile k=63 run
        raise DecompressionError("run length out of range")
    # int64 lens.sum() wraps silently (e.g. four class-62 runs sum to 8),
    # which would defeat the size check below — bound the total with
    # monotone float arithmetic before trusting integer summation
    if float(lens.sum(dtype=np.float64)) > 2.0**62:
        raise DecompressionError("run lengths overflow")
    if expected_size is not None and int(lens.sum()) != expected_size:
        raise DecompressionError(
            "run token stream does not decode to the declared symbol count"
        )
    out_vals = np.where(is_run, dominant, tokens)
    return np.repeat(out_vals, lens)


def run_token_widths(tokens: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Per-run-token extra-bit widths, recoverable from the tokens alone."""
    is_run = tokens >= alphabet_size
    return (tokens[is_run] - alphabet_size).astype(np.uint8)

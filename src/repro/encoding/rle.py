"""Zero-run tokenizer — the stand-in for SZ's zstd "dictionary" stage.

It captures the long runs of the dominant (perfect-prediction) bin, not
all of zstd's gain: zlib-6 over the coded bins still shrinks them to
0.830x (miranda, rel 1e-3), 0.938x (hurricane, 1e-2) and 0.992x (nyx,
1e-3), and hurricane's short runs leave its codes at 1.209x their order-0
entropy (1.219x without run tokens; ROADMAP item 11).  A run of length
``L`` becomes token ``base + k`` where ``k = floor(log2 L)``, plus ``k``
extra bits storing ``L - 2**k``, deflate-style; every other symbol passes
through as a literal token.  The transform is fully vectorized and works
per *literal* both ways: the dominant runs are the gaps between
neighbouring literals, so nothing is decomposed or expanded symbol by
symbol — tokens are scattered to their slots, and back.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DecompressionError

#: number of run-length classes (supports runs up to 2**63 - 1)
RUN_CLASSES = 64


def _floor_log2(x: np.ndarray) -> np.ndarray:
    """Exact floor(log2(x)) for positive int64 values below 2**53 (any
    run an in-memory stream holds): the binary exponent of ``float(x)``,
    which converts exactly."""
    return np.frexp(x.astype(np.float64))[1].astype(np.int64) - 1


def _run_gaps(symbols: np.ndarray, dominant: int) -> Tuple[np.ndarray, np.ndarray]:
    """(literal positions, dominant-run length before each literal and
    after the last one) — the runs of ``dominant`` are exactly the gaps
    between neighbouring non-dominant symbols and the two stream ends."""
    literal_at = np.flatnonzero(symbols != dominant)
    edges = np.concatenate([[-1], literal_at, [symbols.size]])
    return literal_at, np.diff(edges) - 1


def tokenize_runs(
    symbols: np.ndarray, dominant: int, alphabet_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replace runs of ``dominant`` with run tokens.

    Returns ``(tokens, extra_values, extra_widths)`` where tokens live in
    ``[0, alphabet_size + RUN_CLASSES)`` and the extras encode run-length
    remainders (aligned with run tokens, in stream order).
    """
    symbols = np.ascontiguousarray(symbols, dtype=np.int64)
    literal_at, gaps = _run_gaps(symbols, dominant)
    # index, not mask: on an unpredictable pattern the boolean gather is
    # several times slower than flatnonzero + take
    has_run = gaps > 0
    run_at = np.flatnonzero(has_run)
    lens = gaps[run_at]
    k = _floor_log2(lens)
    # output order is [run] literal [run] literal ... [run]: a literal sits
    # behind the runs of every gap up to its own, the r-th run behind the
    # literals before its gap and the r runs before it
    runs_before = np.cumsum(has_run[:-1])
    tokens = np.empty(literal_at.size + run_at.size, dtype=np.int64)
    tokens[np.arange(literal_at.size) + runs_before] = symbols[literal_at]
    tokens[run_at + np.arange(run_at.size)] = alphabet_size + k
    return tokens, (lens - (np.int64(1) << k)).astype(np.uint64), k.astype(np.uint8)


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
    gaps = _run_gaps(symbols, dominant)[1]
    k = _floor_log2(gaps[np.flatnonzero(gaps > 0)])
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
    of silently mis-decoding or ballooning the output into an
    attacker-controlled allocation.
    """
    tokens = np.ascontiguousarray(tokens, dtype=np.int64)
    if tokens.size == 0:
        if expected_size not in (None, 0):
            raise DecompressionError("run token stream decoded to 0 symbols")
        return np.zeros(0, dtype=np.int64)
    is_run = tokens >= alphabet_size
    k = tokens[np.flatnonzero(is_run)] - alphabet_size
    if (k >= RUN_CLASSES).any() or tokens.min() < 0:
        raise DecompressionError("corrupt run token stream")
    if k.size != extra_values.size:
        raise DecompressionError("run-token/extras count mismatch")
    extras = extra_values.astype(np.int64, copy=False)
    if extras.size and (
        (extras < 0).any() or (extras >> np.minimum(k, 62)).any()
    ):
        raise DecompressionError("run length remainder out of range")
    lens = (np.int64(1) << k) + extras
    if (lens <= 0).any():  # int64 overflow from a hostile k=63 run
        raise DecompressionError("run length out of range")
    # int64 lens.sum() wraps silently (e.g. four class-62 runs sum to 8),
    # which would defeat the size check below — bound the total with
    # monotone float arithmetic before trusting integer summation
    if float(lens.sum(dtype=np.float64)) > 2.0**62:
        raise DecompressionError("run lengths overflow")
    total = tokens.size - k.size + int(lens.sum())
    if expected_size is not None and total != expected_size:
        raise DecompressionError(
            "run token stream does not decode to the declared symbol count"
        )
    # the inverse scatter: fill with the dominant symbol, drop each literal
    # behind the tokens before it plus what the runs among them grew by
    # (a literal's index minus its rank counts those runs)
    literal_at = np.flatnonzero(~is_run)
    grown = np.concatenate([[0], np.cumsum(lens - 1)])
    slot = literal_at - np.arange(literal_at.size)
    np.take(grown, slot, out=slot)
    slot += literal_at
    out = np.full(total, dominant, dtype=np.int64)
    out[slot] = tokens[literal_at]
    return out


def run_token_widths(tokens: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Per-run-token extra-bit widths, recoverable from the tokens alone."""
    run_at = np.flatnonzero(tokens >= alphabet_size)  # index, not mask
    return (tokens[run_at] - alphabet_size).astype(np.uint8)

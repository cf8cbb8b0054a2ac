"""Unit + property tests for the zero-run tokenizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.rle import (
    RUN_CLASSES,
    _floor_log2,
    detokenize_runs,
    run_token_histogram,
    run_token_widths,
    tokenize_runs,
)
from repro.errors import DecompressionError


def roundtrip(symbols, dominant, alphabet):
    tokens, extras, widths = tokenize_runs(symbols, dominant, alphabet)
    out = detokenize_runs(tokens, extras, dominant, alphabet)
    return out, tokens, extras, widths


class TestFloorLog2:
    def test_exact_powers(self):
        x = np.array([1, 2, 4, 8, 1 << 40], dtype=np.int64)
        np.testing.assert_array_equal(_floor_log2(x), [0, 1, 2, 3, 40])

    def test_boundaries(self):
        x = np.array([3, 5, 7, 9, (1 << 30) - 1, (1 << 30) + 1], dtype=np.int64)
        np.testing.assert_array_equal(_floor_log2(x), [1, 2, 2, 3, 29, 30])

    def test_large_values(self):
        x = np.array([(1 << 52) - 1, 1 << 52], dtype=np.int64)
        np.testing.assert_array_equal(_floor_log2(x), [51, 52])


class TestTokenizeRuns:
    def test_empty_stream(self):
        out, tokens, extras, widths = roundtrip(np.zeros(0, dtype=np.int64), 0, 4)
        assert out.size == 0 and tokens.size == 0

    def test_no_dominant_occurrences(self):
        syms = np.array([1, 2, 3, 2, 1], dtype=np.int64)
        out, tokens, extras, _ = roundtrip(syms, 0, 4)
        np.testing.assert_array_equal(out, syms)
        np.testing.assert_array_equal(tokens, syms)
        assert extras.size == 0

    def test_all_dominant_single_token(self):
        syms = np.zeros(1000, dtype=np.int64)
        out, tokens, extras, widths = roundtrip(syms, 0, 4)
        np.testing.assert_array_equal(out, syms)
        assert tokens.size == 1
        assert tokens[0] == 4 + 9  # run class floor(log2(1000)) = 9
        assert extras[0] == 1000 - 512
        assert widths[0] == 9

    def test_single_dominant_symbol_run_of_one(self):
        syms = np.array([1, 0, 1], dtype=np.int64)
        out, tokens, extras, widths = roundtrip(syms, 0, 2)
        np.testing.assert_array_equal(out, syms)
        assert tokens.tolist() == [1, 2, 1]  # run class 0
        assert widths.tolist() == [0]
        assert extras.tolist() == [0]

    def test_mixed_runs(self):
        syms = np.array([0, 0, 0, 5, 5, 0, 7, 0, 0, 0, 0], dtype=np.int64)
        out, tokens, extras, widths = roundtrip(syms, 0, 8)
        np.testing.assert_array_equal(out, syms)
        # run(3), 5, 5, run(1), 7, run(4)
        assert tokens.tolist() == [8 + 1, 5, 5, 8 + 0, 7, 8 + 2]
        assert extras.tolist() == [1, 0, 0]

    def test_run_token_widths_recovers_widths(self):
        syms = np.array([0] * 17 + [3] + [0] * 2, dtype=np.int64)
        tokens, extras, widths = tokenize_runs(syms, 0, 4)
        np.testing.assert_array_equal(run_token_widths(tokens, 4), widths)

    def test_detokenize_rejects_bad_token(self):
        with pytest.raises(DecompressionError):
            detokenize_runs(
                np.array([4 + RUN_CLASSES], dtype=np.int64),
                np.zeros(1, dtype=np.uint64),
                0,
                4,
            )

    def test_detokenize_rejects_extras_mismatch(self):
        with pytest.raises(DecompressionError):
            detokenize_runs(
                np.array([5], dtype=np.int64), np.zeros(0, dtype=np.uint64), 0, 4
            )

    def test_detokenize_rejects_oversized_remainder(self):
        """A class-k run must carry a remainder < 2**k; anything larger is
        a forged length that would balloon np.repeat."""
        tokens = np.array([7, 0, 7], dtype=np.int64)  # runs of class 7 - 4 = 3
        extras = np.array([8, 1], dtype=np.uint64)  # 8 >= 2**3: forged
        with pytest.raises(DecompressionError):
            detokenize_runs(tokens, extras, dominant=0, alphabet_size=4)
        extras = np.array([7, 1], dtype=np.uint64)  # legal remainders decode
        out = detokenize_runs(tokens, extras, dominant=0, alphabet_size=4)
        assert out.size == (8 + 7) + 1 + (8 + 1)

    def test_detokenize_rejects_wrong_expected_size(self):
        syms = np.array([0, 0, 0, 0, 2, 0, 0], dtype=np.int64)
        tokens, extras, _ = tokenize_runs(syms, 0, 4)
        out = detokenize_runs(tokens, extras, 0, 4, expected_size=syms.size)
        np.testing.assert_array_equal(out, syms)
        with pytest.raises(DecompressionError):
            detokenize_runs(tokens, extras, 0, 4, expected_size=syms.size + 1)

    def test_detokenize_rejects_hostile_top_class(self):
        """Class 63 encodes runs >= 2**63 — unrepresentable; must raise,
        not overflow int64 into a negative repeat count."""
        tokens = np.array([4 + 63], dtype=np.int64)
        extras = np.array([0], dtype=np.uint64)
        with pytest.raises(DecompressionError):
            detokenize_runs(tokens, extras, dominant=0, alphabet_size=4)

    def test_detokenize_rejects_run_lengths_that_wrap_int64(self):
        """Four class-62 runs sum to 2**64 + 8, which wraps int64 to
        exactly 8: a stream declaring 8 symbols must still raise, not
        expand a wrapped total."""
        tokens = np.full(4, 4 + 62, dtype=np.int64)
        extras = np.full(4, 2, dtype=np.uint64)
        with pytest.raises(DecompressionError, match="overflow"):
            detokenize_runs(tokens, extras, 0, 4, expected_size=8)

    def test_dominant_not_zero(self):
        syms = np.array([3, 3, 3, 1, 3, 3], dtype=np.int64)
        out, tokens, _, _ = roundtrip(syms, 3, 4)
        np.testing.assert_array_equal(out, syms)
        assert (tokens >= 4).sum() == 2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=0.0, max_value=0.98),
)
def test_roundtrip_property(seed, n, alphabet, dominance):
    """Streams with arbitrary dominance levels roundtrip exactly."""
    rng = np.random.default_rng(seed)
    dom = int(rng.integers(0, alphabet))
    syms = rng.integers(0, alphabet, size=n)
    mask = rng.random(n) < dominance
    syms[mask] = dom
    out, tokens, extras, widths = roundtrip(syms.astype(np.int64), dom, alphabet)
    np.testing.assert_array_equal(out, syms)
    # widths always recoverable from tokens alone
    np.testing.assert_array_equal(run_token_widths(tokens, alphabet), widths)
    # extras fit in their declared widths
    for v, w in zip(extras.tolist(), widths.tolist()):
        assert v < (1 << w) if w else v == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=400))
def test_roundtrip_explicit_lists(values):
    syms = np.array(values, dtype=np.int64)
    out, _, _, _ = roundtrip(syms, 2, 6)
    np.testing.assert_array_equal(out, syms)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=300))
def test_histogram_equals_the_tokenizers(values):
    """`run_token_histogram` never builds the tokens, yet has to count
    them exactly — dominant runs at either end, back to back, absent, or
    the whole stream included (QoZ's trial scores hinge on it)."""
    syms = np.array(values, dtype=np.int64)
    tokens, _extras, widths = tokenize_runs(syms, 2, 4)
    freqs, extra_bits = run_token_histogram(syms, 2)
    want = np.bincount(tokens) if tokens.size else np.zeros(1, np.int64)
    # the contract is the same positive-entry sequence (what Shannon sees)
    assert freqs[freqs > 0].tolist() == want[want > 0].tolist()
    assert extra_bits == int(widths.astype(np.int64).sum())


# --- the gap tokenizer against the run-decomposition it replaced -----------


def tokenize_by_run_lengths(symbols, dominant, alphabet_size):
    """Reference: decompose the whole stream into runs of equal symbols,
    turn the dominant ones into tokens and expand the rest."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size == 0:
        return symbols, symbols.astype(np.uint64), symbols.astype(np.uint8)
    change = np.flatnonzero(symbols[1:] != symbols[:-1]) + 1
    starts = np.concatenate([[0], change])
    lens = np.diff(np.concatenate([starts, [symbols.size]]))
    vals = symbols[starts]
    is_dom = vals == dominant
    k = np.zeros(lens.size, dtype=np.int64)
    k[is_dom] = _floor_log2(lens[is_dom]) if is_dom.any() else 0
    tokens = np.repeat(
        np.where(is_dom, alphabet_size + k, vals), np.where(is_dom, 1, lens)
    )
    extra = (lens[is_dom] - (np.int64(1) << k[is_dom])).astype(np.uint64)
    return tokens, extra, k[is_dom].astype(np.uint8)


def _runs_of(lengths, dominant=2, literal=0):
    """Dominant runs of the given lengths, one literal between neighbours."""
    parts = []
    for n in lengths:
        parts += [np.full(n, dominant), [literal]]
    return np.concatenate(parts[:-1]).astype(np.int64)


_EDGE_LENGTHS = sorted(
    {n for k in range(1, 13) for n in (2**k - 1, 2**k, 2**k + 1)}
)

_REFERENCE_CASES = {
    "empty": np.zeros(0, dtype=np.int64),
    "all-dominant": np.full(777, 2, dtype=np.int64),
    "no-dominant": np.array([0, 1, 3, 3, 1, 0, 0], dtype=np.int64),
    "dominant-at-both-ends": np.array([2, 2, 1, 0, 2, 3, 2, 2, 2], dtype=np.int64),
    "single-dominant": np.array([2], dtype=np.int64),
    "single-literal": np.array([1], dtype=np.int64),
    "strictly-alternating": np.tile([2, 1], 50).astype(np.int64),
    "alternating-literal-first": np.tile([1, 2], 50).astype(np.int64),
    "power-of-two-edges": _runs_of(_EDGE_LENGTHS),
    "power-of-two-edges-behind-a-literal": np.concatenate(
        [[3], _runs_of(_EDGE_LENGTHS[::-1]), [3]]
    ).astype(np.int64),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
def test_tokenizer_equals_run_length_reference(name):
    syms = _REFERENCE_CASES[name]
    tokens, *extras = tokenize_runs(syms, 2, 4)
    want_tokens, *want_extras = tokenize_by_run_lengths(syms, 2, 4)
    # tokens come in the narrowest type that holds them: compare values
    np.testing.assert_array_equal(tokens, want_tokens)
    for g, w in zip(extras, want_extras):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=300))
def test_tokenizer_equals_run_length_reference_on_arbitrary_streams(values):
    syms = np.array(values, dtype=np.int64)
    for got, want in zip(tokenize_runs(syms, 2, 4), tokenize_by_run_lengths(syms, 2, 4)):
        np.testing.assert_array_equal(got, want)


# --- the scatter detokenizer against the np.repeat expansion it replaced ----


def detokenize_by_repeat(tokens, extra_values, dominant, alphabet_size):
    """Reference: one output run per token — length 1 for a literal,
    ``2**k + extra`` for a run token — expanded with ``np.repeat``."""
    tokens = np.asarray(tokens, dtype=np.int64)
    is_run = tokens >= alphabet_size
    lens = np.ones(tokens.size, dtype=np.int64)
    lens[is_run] = (np.int64(1) << (tokens[is_run] - alphabet_size)) + (
        np.asarray(extra_values).astype(np.int64)
    )
    return np.repeat(np.where(is_run, dominant, tokens), lens)


@pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
def test_detokenizer_equals_repeat_reference(name):
    syms = _REFERENCE_CASES[name]
    tokens, extra, _ = tokenize_by_run_lengths(syms, 2, 4)
    got = detokenize_runs(tokens, extra, 2, 4, expected_size=syms.size)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, detokenize_by_repeat(tokens, extra, 2, 4))
    np.testing.assert_array_equal(got, syms)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=300))
def test_detokenizer_equals_repeat_reference_on_arbitrary_streams(values):
    syms = np.array(values, dtype=np.int64)
    tokens, extra, _ = tokenize_by_run_lengths(syms, 2, 4)
    np.testing.assert_array_equal(
        detokenize_runs(tokens, extra, 2, 4), detokenize_by_repeat(tokens, extra, 2, 4)
    )

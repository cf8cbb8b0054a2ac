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

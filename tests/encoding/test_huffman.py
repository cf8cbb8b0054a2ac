"""Unit + property tests for the canonical Huffman coder."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCode,
    _build_lengths,
    _canonical_codes,
    _tree_lengths,
)


def roundtrip(symbols, alphabet):
    code = HuffmanCode.from_symbols(symbols, alphabet)
    w = BitWriter()
    code.serialize(w)
    code.encode(symbols, w)
    r = BitReader(w.getvalue())
    code2 = HuffmanCode.deserialize(r)
    out = code2.decode(r, symbols.size)
    return out, code


class TestHuffmanBuild:
    def test_single_symbol_gets_length_one(self):
        code = HuffmanCode.from_frequencies(np.array([0, 10, 0]))
        assert code.lengths[1] == 1
        assert code.lengths[0] == 0 and code.lengths[2] == 0

    def test_two_equal_symbols(self):
        code = HuffmanCode.from_frequencies(np.array([5, 5]))
        assert code.lengths.tolist() == [1, 1]
        assert sorted(code.codes.tolist()) == [0, 1]

    def test_kraft_inequality_holds(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(0, 1000, size=64)
        code = HuffmanCode.from_frequencies(freqs)
        lens = code.lengths[code.lengths > 0].astype(np.float64)
        assert np.sum(2.0 ** -lens) <= 1.0 + 1e-12

    def test_skewed_distribution_is_length_limited(self):
        # Fibonacci-like frequencies normally produce very deep trees
        freqs = np.array([1, 1] + [0] * 3, dtype=np.int64)
        fib = [1, 1]
        for _ in range(60):
            fib.append(fib[-1] + fib[-2])
        freqs = np.array(fib, dtype=np.int64)
        code = HuffmanCode.from_frequencies(freqs)
        assert code.lengths.max() <= MAX_CODE_LENGTH

    def test_more_frequent_symbols_get_shorter_codes(self):
        freqs = np.array([1000, 10, 10, 1])
        code = HuffmanCode.from_frequencies(freqs)
        assert code.lengths[0] <= code.lengths[1]
        assert code.lengths[1] <= code.lengths[3]

    def test_optimality_matches_entropy_within_one_bit(self):
        rng = np.random.default_rng(1)
        syms = rng.integers(0, 16, size=20000)
        freqs = np.bincount(syms, minlength=16).astype(np.float64)
        p = freqs / freqs.sum()
        entropy = -(p[p > 0] * np.log2(p[p > 0])).sum()
        code = HuffmanCode.from_frequencies(freqs.astype(np.int64))
        avg_len = (freqs * code.lengths).sum() / freqs.sum()
        assert entropy <= avg_len <= entropy + 1.0


class TestHuffmanRoundtrip:
    def test_basic_roundtrip(self):
        rng = np.random.default_rng(2)
        syms = rng.integers(0, 20, size=5000)
        out, _ = roundtrip(syms, 20)
        np.testing.assert_array_equal(out, syms)

    def test_single_distinct_symbol_stream(self):
        syms = np.full(100, 7, dtype=np.int64)
        out, code = roundtrip(syms, 10)
        np.testing.assert_array_equal(out, syms)
        assert code.lengths[7] == 1

    def test_empty_stream(self):
        code = HuffmanCode.from_frequencies(np.array([1, 1]))
        w = BitWriter()
        code.encode(np.zeros(0, dtype=np.int64), w)
        assert w.bit_length == 0
        r = BitReader(b"")
        assert code.decode(r, 0).size == 0

    def test_long_codes_use_escape_path(self):
        # geometric frequencies force code lengths past the 16-bit table
        n = 24
        freqs = (2 ** np.arange(n, dtype=np.float64)).astype(np.int64)
        code = HuffmanCode(lengths=HuffmanCode.from_frequencies(freqs).lengths)
        assert code.lengths.max() > 16
        rng = np.random.default_rng(3)
        syms = rng.choice(n, p=freqs / freqs.sum(), size=4000)
        w = BitWriter()
        code.encode(syms, w)
        r = BitReader(w.getvalue())
        out = code.decode(r, syms.size)
        np.testing.assert_array_equal(out, syms)

    def test_large_alphabet_sparse(self):
        syms = np.array([10000, 50000, 10000, 3, 50000, 3], dtype=np.int64)
        out, _ = roundtrip(syms, 65536)
        np.testing.assert_array_equal(out, syms)

    def test_decode_after_other_fields(self):
        rng = np.random.default_rng(4)
        syms = rng.integers(0, 8, size=300)
        code = HuffmanCode.from_symbols(syms, 8)
        w = BitWriter()
        w.write_uint(123, 20)
        code.serialize(w)
        code.encode(syms, w)
        w.write_uint(77, 9)
        r = BitReader(w.getvalue())
        assert r.read_uint(20) == 123
        code2 = HuffmanCode.deserialize(r)
        np.testing.assert_array_equal(code2.decode(r, syms.size), syms)
        assert r.read_uint(9) == 77

    def test_encode_symbol_without_code_raises(self):
        code = HuffmanCode.from_frequencies(np.array([1, 1, 0]))
        with pytest.raises(ValueError):
            code.encode(np.array([2]), BitWriter())

    def test_deserialize_rejects_kraft_violations(self):
        from repro.errors import DecompressionError

        # three 1-bit codes cannot coexist: 3 * 2^-1 > 1
        w = BitWriter()
        w.write_uint(3, 32)  # alphabet size
        w.write_uint(3, 32)  # nonzero count
        w.write_uint(1, 1)  # dense
        w.write_array(np.array([1, 1, 1], dtype=np.uint64), 6)
        with pytest.raises(DecompressionError):
            HuffmanCode.deserialize(BitReader(w.getvalue()))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.1, max_value=8.0),
)
def test_roundtrip_property(n, alphabet, seed, skew):
    """Random (possibly heavily skewed) streams roundtrip exactly."""
    rng = np.random.default_rng(seed)
    weights = rng.random(alphabet) ** skew
    weights /= weights.sum()
    syms = rng.choice(alphabet, p=weights, size=n)
    out, _ = roundtrip(syms, alphabet)
    np.testing.assert_array_equal(out, syms)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_serialize_deserialize_identity(seed):
    rng = np.random.default_rng(seed)
    freqs = rng.integers(0, 50, size=rng.integers(2, 100))
    if freqs.sum() == 0:
        freqs[0] = 1
    code = HuffmanCode.from_frequencies(freqs)
    w = BitWriter()
    code.serialize(w)
    r = BitReader(w.getvalue())
    code2 = HuffmanCode.deserialize(r)
    np.testing.assert_array_equal(code.lengths, code2.lengths)
    np.testing.assert_array_equal(code.codes, code2.codes)


# --- the decoder's per-thread block scratch ---------------------------------


def _encoded(seed, n, alphabet):
    syms = np.random.default_rng(seed).integers(0, alphabet, size=n)
    code = HuffmanCode.from_symbols(syms, alphabet)
    w = BitWriter()
    code.encode(syms, w)
    return syms, code, w.getvalue()


class TestBlockScratch:
    def test_results_survive_later_decodes_of_other_sizes(self):
        # several blocks, then one block, then a tiny one: every decode
        # works in the same rows, none may hand out a view of them
        streams = [_encoded(s, n, a) for s, n, a in
                   [(1, 120_000, 200), (2, 30_000, 7), (3, 40, 3), (4, 90_000, 2000)]]
        outs = [code.decode(BitReader(blob), syms.size) for syms, code, blob in streams]
        for (syms, _, _), out in zip(streams, outs):
            np.testing.assert_array_equal(out, syms)

    def test_threads_do_not_share_scratch(self):
        from concurrent.futures import ThreadPoolExecutor

        streams = [_encoded(10 + i, 150_000, 50 + 40 * i) for i in range(4)]

        def decode(stream):
            syms, code, blob = stream
            return all(
                np.array_equal(code.decode(BitReader(blob), syms.size), syms)
                for _ in range(5)
            )

        with ThreadPoolExecutor(4) as pool:
            assert all(pool.map(decode, streams * 2))


# --- the parent-link tree build against the leaf-list one it replaced ------


def tree_lengths_by_leaf_lists(freqs):
    """Reference: every heap node carries the list of leaves under it and
    each merge deepens all of them by one."""
    nz = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if nz.size == 1:
        lengths[nz[0]] = 1
    if nz.size < 2:
        return lengths
    heap = [(int(freqs[s]), int(s), [int(s)]) for s in nz]
    heapq.heapify(heap)
    tick = int(freqs.size)
    depth = {int(s): 0 for s in nz}
    while len(heap) > 1:
        w1, _, l1 = heapq.heappop(heap)
        w2, _, l2 = heapq.heappop(heap)
        for s in l1 + l2:
            depth[s] += 1
        tick += 1
        heapq.heappush(heap, (w1 + w2, tick, l1 + l2))
    for s, d in depth.items():
        lengths[s] = d
    return lengths


def _fibonacci(n):
    out = [1, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return np.array(out, dtype=np.int64)


class TestTreeLengthsReference:
    def test_random_histograms(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            size = int(rng.integers(1, 300))
            # small ceilings make ties (the tiebreak order) the common case
            freqs = rng.integers(0, rng.choice([2, 4, 50, 10**6]), size=size)
            freqs[rng.random(size) < rng.random()] = 0
            np.testing.assert_array_equal(
                _tree_lengths(freqs), tree_lengths_by_leaf_lists(freqs)
            )

    @pytest.mark.parametrize(
        "freqs",
        [
            np.zeros(5, dtype=np.int64),
            np.array([0, 0, 9], dtype=np.int64),
            np.full(37, 6, dtype=np.int64),
            np.full(64, 1, dtype=np.int64),
            1 << np.arange(30, dtype=np.int64),
            (1 << np.arange(30, dtype=np.int64))[::-1].copy(),
            _fibonacci(30),
        ],
        ids=["empty", "one-symbol", "all-equal", "all-equal-2^k",
             "powers-of-two", "powers-of-two-descending", "fibonacci"],
    )
    def test_structured_histograms(self, freqs):
        np.testing.assert_array_equal(
            _tree_lengths(freqs), tree_lengths_by_leaf_lists(freqs)
        )

    def test_fibonacci_histogram_through_the_flattening_loop(self):
        freqs = _fibonacci(45)
        # unlimited, the tree is a 44-deep comb: the build has to flatten
        assert tree_lengths_by_leaf_lists(freqs).max() == 44 > MAX_CODE_LENGTH
        want = freqs.copy()
        rounds = 0
        while tree_lengths_by_leaf_lists(want).max() > MAX_CODE_LENGTH:
            want = (want + 1) // 2
            rounds += 1
        assert rounds >= 1
        got = _build_lengths(freqs)
        np.testing.assert_array_equal(got, tree_lengths_by_leaf_lists(want))
        assert got.max() <= MAX_CODE_LENGTH


def canonical_codes_one_by_one(lengths):
    """Reference: walk the symbols in (length, symbol) order, add one per
    code and shift left whenever the length grows."""
    codes = np.zeros(lengths.size, dtype=np.uint64)
    code = prev_len = 0
    for sym in sorted(np.flatnonzero(lengths), key=lambda s: (lengths[s], s)):
        code <<= int(lengths[sym]) - prev_len
        codes[sym] = code
        code += 1
        prev_len = int(lengths[sym])
    return codes


def test_canonical_codes_equal_the_one_by_one_assignment():
    rng = np.random.default_rng(12)
    cases = [np.zeros(4, dtype=np.uint8), np.array([0, 1, 0], dtype=np.uint8)]
    cases += [_build_lengths(_fibonacci(n)) for n in (2, 33, 45)]
    for _ in range(300):
        size = int(rng.integers(1, 400))
        freqs = rng.integers(0, rng.choice([2, 50, 10**6]), size=size)
        freqs[rng.random(size) < rng.random()] = 0
        cases.append(_build_lengths(freqs))
    for lengths in cases:
        np.testing.assert_array_equal(
            _canonical_codes(lengths), canonical_codes_one_by_one(lengths)
        )

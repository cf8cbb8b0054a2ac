"""Unit + property tests for the canonical Huffman coder."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import huffman
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCode,
    _build_lengths,
    _canonical_codes,
    _tree_lengths,
)
from repro.errors import DecompressionError


def roundtrip(symbols, alphabet, code=None):
    if code is None:
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
        # three 1-bit codes cannot coexist: 3 * 2^-1 > 1
        w = BitWriter()
        w.write_uint(3, 32)  # alphabet size
        w.write_uint(3, 32)  # nonzero count
        w.write_uint(1, 1)  # dense
        w.write_array(np.array([1, 1, 1], dtype=np.uint64), 6)
        with pytest.raises(DecompressionError):
            HuffmanCode.deserialize(BitReader(w.getvalue()))


# --- decoder regimes: chain strides, first-block budget, escapes, tails -----


def _stride(m):
    """The anchor stride ``_extract_chain`` walks a chain of m codewords at."""
    return 1 << max(2, min(7, (m // 2400).bit_length()))


@pytest.fixture
def chain_laps(monkeypatch):
    """(m, short) of every block's chain: its codeword budget, and whether
    the budget ran out inside the block (where links step forward; past
    the block every link is a self-loop)."""
    laps = []
    extract = HuffmanCode._extract_chain

    def spy(nxt, m, buf_a, buf_b):
        chain = extract(nxt, m, buf_a, buf_b)
        laps.append((m, bool(nxt[chain[m]] != chain[m])))
        return chain

    monkeypatch.setattr(HuffmanCode, "_extract_chain", staticmethod(spy))
    return laps


def uniform(bits, n):
    """n symbols uniform over 2^bits: every codeword about ``bits`` long."""
    return lambda rng: (rng.integers(0, 1 << bits, size=n), 1 << bits, None)


def all_18_bit(rng):
    """A complete code of 2^18 18-bit codewords: every window escapes the
    16-bit table and every codeword on the chain is resolved canonically."""
    code = HuffmanCode(np.full(1 << 18, 18, dtype=np.uint8))
    return rng.integers(0, 1 << 18, size=25_000), 1 << 18, code


def past_the_table(rng):
    """Geometric frequencies give codes of up to 23 bits; the stream holds
    every symbol, so the escapes are on the chain, not only beside it."""
    freqs = 1 << np.arange(24, dtype=np.int64)
    code = HuffmanCode.from_frequencies(freqs)
    syms = np.concatenate([
        rng.choice(24, p=freqs / freqs.sum(), size=200_000),
        np.repeat(np.arange(24), 40),
    ])
    rng.shuffle(syms)
    return syms, 24, code


#: (input, block bits or None for the default, strides its chains reach)
REGIMES = [
    pytest.param(uniform(1, 800_000), 1 << 18, {128}, id="1-bit-in-2^18-bit-blocks"),
    pytest.param(uniform(1, 400_000), None, {64}, id="1-bit"),
    pytest.param(uniform(3, 140_000), None, {32}, id="3-bit"),
    pytest.param(uniform(5, 80_000), None, {16}, id="5-bit"),
    pytest.param(uniform(12, 35_000), None, {8}, id="12-bit"),
    pytest.param(all_18_bit, None, {4}, id="18-bit-all-escapes"),
    pytest.param(past_the_table, None, {64}, id="past-the-16-bit-table"),
]


@pytest.mark.parametrize("make, block_bits, strides", REGIMES)
def test_decoder_regimes(make, block_bits, strides, chain_laps, monkeypatch):
    if block_bits:
        monkeypatch.setattr(huffman, "_BLOCK_BITS", block_bits)
    syms, alphabet, code = make(np.random.default_rng(7))
    out, code = roundtrip(syms, alphabet, code)
    np.testing.assert_array_equal(out, syms)
    assert len(chain_laps) >= 3  # spread across several blocks
    assert strides <= {_stride(m) for m, _ in chain_laps}
    if code.lengths.max() > 16:
        assert (code.lengths[syms] > 16).any()


def test_the_regimes_reach_every_stride():
    reached = set().union(*(case.values[2] for case in REGIMES))
    assert reached == {1 << c for c in range(2, 8)}


def test_a_first_block_budget_undershoot_takes_another_lap(chain_laps):
    # a one-bit symbol at p ~ 0.995: the code's Kraft mean length (~4.0
    # bits) overstates its real ~1.03 bits per codeword, so the first
    # block's budget runs out before its span does
    rng = np.random.default_rng(8)
    syms = rng.integers(1, 64, size=300_000)
    syms[rng.random(syms.size) < 0.995] = 0
    out, code = roundtrip(syms, 64)
    np.testing.assert_array_equal(out, syms)
    assert code.lengths[0] == 1
    assert chain_laps[0][1]


@pytest.mark.parametrize(
    "lengths, syms, tail",
    [
        ([1, 2], [0, 1, 0, 1, 0], "11"),
        ([1, 2, 20, 20], [0, 2, 1, 3, 0], "1" * 20),
    ],
    ids=["tail-in-the-table", "tail-past-the-long-codes"],
)
def test_an_unused_tail_window_on_the_chain_raises(lengths, syms, tail):
    # a Kraft-incomplete code (3/4 and 3/4 + 2^-19 of the code space):
    # the symbols decode, the unused tail's window after them does not
    code = HuffmanCode(np.array(lengths, dtype=np.uint8))
    w = BitWriter()
    code.encode(np.array(syms), w)
    w.write_uint(int(tail, 2), len(tail))
    blob = w.getvalue()
    np.testing.assert_array_equal(code.decode(BitReader(blob), len(syms)), syms)
    with pytest.raises(DecompressionError):
        code.decode(BitReader(blob), len(syms) + 1)


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


def decode_table_code_by_code(lengths, t):
    """Reference fused table: each code of at most ``t`` bits owns the
    ``2^(t - len)`` rows from ``code << (t - len)``, holding ``sym << 6 |
    len``; every other row is an escape (length field 63)."""
    table = np.full(1 << t, 63, dtype=np.int64)
    codes = canonical_codes_one_by_one(lengths)
    for sym in np.flatnonzero(lengths):
        ln = int(lengths[sym])
        if ln <= t:
            start = int(codes[sym]) << (t - ln)
            table[start : start + (1 << (t - ln))] = (int(sym) << 6) | ln
    return table


def test_decode_table_equals_the_code_by_code_fill():
    rng = np.random.default_rng(14)
    cases = [np.zeros(3, dtype=np.uint8), np.array([0, 1], dtype=np.uint8)]
    for i in range(2000):
        size = int(rng.integers(1, 200))
        if i % 2:  # wide weight ranges: codes past the 16-bit table
            freqs = (2.0 ** rng.uniform(0, rng.uniform(5, 40), size)).astype(np.int64)
        else:
            freqs = rng.integers(0, rng.choice([2, 50, 10**6]), size=size)
        lengths = _build_lengths(freqs)
        if i % 3 == 0:  # drop codes: Kraft-incomplete
            lengths[rng.random(size) < 0.3] = 0
        cases.append(lengths)
    seen = set()
    for lengths in cases:
        t, table = HuffmanCode(lengths)._ensure_decode_table()[:2]
        maxlen = int(lengths.max(initial=0))
        assert t == (min(maxlen, 16) if maxlen else 1)
        np.testing.assert_array_equal(table, decode_table_code_by_code(lengths, t))
        kraft = np.ldexp(1.0, -lengths[lengths > 0].astype(np.int64)).sum()
        seen.add((t < maxlen, kraft < 1))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}

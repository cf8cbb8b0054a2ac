"""Canonical, length-limited Huffman coding over a dense integer alphabet.

The code comes from the textbook heap merge, with one parent link recorded
per merge and every depth read off the links in a single sweep.  Both coding
directions are fully vectorized.  Encoding is a table lookup +
:class:`BitWriter`.  Decoding works in bounded bit-blocks: gather a 32-bit
window at *every* bit offset of the block straight from the packed bytes,
resolve each offset's (symbol, code length) through a 16-bit first-level
table (with a vectorized canonical pass for longer codes), then extract the
actual codeword chain by pointer doubling over the per-offset "next
position" array.  No per-symbol Python loop, and the block-sized arrays are
one per-thread scratch reused by every block of every stream, so decode
memory is bounded by the block size, not the stream (DESIGN.md §6).
"""

from __future__ import annotations

import heapq
import threading
from typing import Optional

import numpy as np

from repro.encoding.bitstream import BitReader, BitWriter
from repro.errors import DecompressionError

#: longest admissible code; 32 keeps codes in uint64 math comfortably
MAX_CODE_LENGTH = 32
#: first-level decode table width
_TABLE_BITS = 16
_ESCAPE = 255
#: escape marker in the fused table's 6-bit length field
_ESCAPE_LEN = 63
#: bits examined per decode round; bounds decode scratch (five int64 rows
#: of this many elements) independently of stream size
_BLOCK_BITS = 1 << 17
_scratch = threading.local()


def _block_scratch(n: int) -> np.ndarray:
    """This thread's five rows of >= ``n`` int64 that every decode block
    works in — fused entries, next-offset links, two jump buffers and
    0..n-1 — grown on demand and kept, so a decode allocates nothing per
    block and its speed no longer follows what the allocator was last
    asked to free (EXPERIMENTS.md §12)."""
    rows = getattr(_scratch, "rows", None)
    if rows is None or rows.shape[1] < n:
        rows = _scratch.rows = np.empty((5, n), dtype=np.int64)
        rows[4] = np.arange(n)
    return rows


def _tree_lengths(freqs: np.ndarray) -> np.ndarray:
    """Code length per symbol from a frequency table (0 for absent symbols)."""
    nz = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if nz.size < 2:
        lengths[nz] = 1
        return lengths
    # heap items are (weight, node id): leaves are numbered in symbol
    # order and merged nodes after them in creation order, so the id is
    # the tiebreak, and a parent's id is larger than its children's: one
    # sweep down from the root (the last node) reads off every depth
    n = int(nz.size)
    heap = list(zip(freqs[nz].tolist(), range(n)))
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    for node in range(n, 2 * n - 1):
        w1, a = heapq.heappop(heap)
        w2, b = heap[0]
        parent[a] = parent[b] = node
        heapq.heapreplace(heap, (w1 + w2, node))
    depth = [0] * (2 * n - 1)
    for i in range(2 * n - 3, -1, -1):
        depth[i] = depth[parent[i]] + 1
    lengths[nz] = depth[:n]
    return lengths


def _build_lengths(freqs: np.ndarray) -> np.ndarray:
    """Length-limited code lengths: flatten the histogram until it fits."""
    freqs = freqs.astype(np.int64, copy=True)
    while True:
        lengths = _tree_lengths(freqs)
        if lengths.max(initial=0) <= MAX_CODE_LENGTH:
            return lengths
        nz = freqs > 0
        freqs[nz] = (freqs[nz] + 1) // 2


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes ordered by (length, symbol)."""
    codes = np.zeros(lengths.size, dtype=np.uint64)
    order = np.argsort(lengths, kind="stable")[np.count_nonzero(lengths == 0) :]
    if order.size:
        # a code is the Kraft mass of the codes before it (2^-len each) in
        # units of its own 2^-len; scaled by 2^longest the sums are integers
        shift = (lengths[order[-1]] - lengths[order]).astype(np.uint64)
        codes[order] = (np.cumsum(np.uint64(1) << shift) >> shift) - np.uint64(1)
    return codes


class HuffmanCode:
    """A canonical Huffman code over symbols ``0..alphabet_size-1``."""

    def __init__(self, lengths: np.ndarray):
        self.lengths = np.asarray(lengths, dtype=np.uint8)
        self.codes = _canonical_codes(self.lengths)
        self._decode_table: Optional[tuple] = None

    # ------------------------------------------------------------------ build
    @classmethod
    def from_frequencies(cls, freqs: np.ndarray) -> "HuffmanCode":
        """Build a code from a dense frequency table."""
        return cls(_build_lengths(np.asarray(freqs, dtype=np.int64)))

    @classmethod
    def from_symbols(cls, symbols: np.ndarray, alphabet_size: int) -> "HuffmanCode":
        """Build a code from observed symbols."""
        freqs = np.bincount(symbols, minlength=alphabet_size)
        return cls.from_frequencies(freqs)

    @property
    def alphabet_size(self) -> int:
        """Number of symbols the code covers (incl. zero-length ones)."""
        return int(self.lengths.size)

    # ----------------------------------------------------------------- encode
    def encode(self, symbols: np.ndarray, writer: BitWriter) -> None:
        """Append the codes of ``symbols`` to ``writer`` (vectorized)."""
        symbols = np.asarray(symbols)
        if symbols.size == 0:
            return
        lens = self.lengths[symbols]
        if (lens == 0).any():
            raise ValueError("attempt to encode a symbol with no code")
        writer.write_array(self.codes[symbols], lens)

    # ----------------------------------------------------------------- decode
    def _ensure_decode_table(self):
        if self._decode_table is not None:
            return self._decode_table
        lengths = self.lengths
        maxlen = int(lengths.max(initial=0))
        t = min(maxlen, _TABLE_BITS) if maxlen else 1
        size = 1 << t
        table_sym = np.zeros(size, dtype=np.int64)
        table_len = np.full(size, _ESCAPE, dtype=np.uint8)
        syms = np.flatnonzero(lengths)
        short = syms[lengths[syms] <= t]
        if short.size:
            lens_s = lengths[short].astype(np.int64)
            reps = np.int64(1) << (t - lens_s)
            starts = (self.codes[short].astype(np.int64)) << (t - lens_s)
            order = np.argsort(starts, kind="stable")
            # each short code owns 2^(t-len) consecutive table rows, so
            # the repeats can never exceed the 2^t-entry table
            assert int(reps.sum()) <= size
            table_sym = np.repeat(short[order].astype(np.int64), reps[order])
            table_len = np.repeat(lengths[short][order], reps[order])
            if table_sym.size != size:  # gaps only if long codes exist
                full_sym = np.zeros(size, dtype=np.int64)
                full_len = np.full(size, _ESCAPE, dtype=np.uint8)
                pos = starts[order]
                idx = np.repeat(pos, reps[order]) + _ragged_offsets(reps[order])
                full_sym[idx] = table_sym
                full_len[idx] = table_len
                table_sym, table_len = full_sym, full_len
        # canonical fallback arrays for codes longer than t
        first_code = np.zeros(maxlen + 2, dtype=np.int64)
        count = np.bincount(lengths[syms], minlength=maxlen + 2).astype(np.int64)
        index = np.zeros(maxlen + 2, dtype=np.int64)
        code = 0
        total = 0
        for ln in range(1, maxlen + 1):
            code <<= 1
            first_code[ln] = code
            index[ln] = total
            code += count[ln]
            total += count[ln]
        sorted_syms = syms[np.lexsort((syms, lengths[syms]))]
        # fused (symbol, length) entry: one gather resolves both.  The
        # length field is 6 bits (max length 32 < 63); 63 marks escapes.
        combo = (table_sym.astype(np.int64) << np.int64(6)) | np.where(
            table_len == _ESCAPE, np.int64(_ESCAPE_LEN), table_len.astype(np.int64)
        )
        self._decode_table = (
            t,
            combo,
            maxlen,
            first_code,
            count,
            index,
            sorted_syms.astype(np.int64),
            bool((table_len == _ESCAPE).any()),
        )
        return self._decode_table

    def _resolve_escapes(self, reader, pos, entry, step, esc, tables):
        """Vectorized canonical decode for windows the first-level table
        cannot resolve (codes longer than the table width, or gaps left by
        a non-Kraft-complete table).  Unresolvable windows are marked with
        symbol -1 / step 1; they only matter if the codeword chain actually
        visits them, in which case :meth:`decode` raises."""
        t, _, maxlen, first_code, length_count, index, sorted_syms = tables[:7]
        w = reader.peek_windows_at(pos + esc, 32)
        sym_e = np.full(esc.size, -1, dtype=np.int64)
        step_e = np.ones(esc.size, dtype=np.int64)
        open_mask = np.ones(esc.size, dtype=bool)
        for ln in range(t + 1, maxlen + 1):
            if length_count[ln] == 0:
                continue
            off = (w >> np.uint64(32 - ln)).astype(np.int64) - first_code[ln]
            hit = open_mask & (off >= 0) & (off < length_count[ln])
            if hit.any():
                sym_e[hit] = sorted_syms[index[ln] + off[hit]]
                step_e[hit] = ln
                open_mask &= ~hit
        entry[esc] = (sym_e << np.int64(6)) | step_e
        step[esc] = step_e

    @staticmethod
    def _extract_chain(nxt, span, m, buf_a, buf_b):
        """Positions after 0..m codewords, following ``nxt`` from offset 0.

        ``nxt`` maps every offset in ``[0, span)`` to the offset after one
        codeword and self-loops past ``span``, so the chain saturates at
        the first position outside the block.  Small chains use pointer
        doubling (log2(m) full passes over ``nxt``); larger ones compose
        ``nxt`` only a few times, walk stride-sized anchor hops, then
        advance all anchor lanes in lockstep — O(m) gathers total instead
        of a full composition pass per doubling round.  The compositions
        and the lanes live in the two scratch rows ``buf_a`` / ``buf_b``;
        the returned chain is a view of one, good until the next block.
        """
        if m < 512:
            chain = np.empty(m + 1, dtype=np.intp)
            chain[0] = 0
            filled = 1
            while filled < m + 1:
                if chain[filled - 1] >= span:  # saturated: tail is constant
                    chain[filled:] = chain[filled - 1]
                    break
                take = min(filled, m + 1 - filled)
                chain[filled : filled + take] = nxt[chain[:take]]
                filled += take
                if filled < m + 1:
                    nxt = nxt[nxt]  # now jumps `filled` codewords
            return chain
        # each composition pass costs O(span); each halving of the anchor
        # walk saves m/stride scalar steps — balance the two
        c = max(2, min(7, (m // 600).bit_length() - 1))
        stride = 1 << c
        stride_jump = nxt
        for i in range(c):  # ping-pong: never gather into the source
            spare = (buf_b if i & 1 else buf_a)[: nxt.size]
            stride_jump = np.take(stride_jump, stride_jump, out=spare, mode="clip")
        n_anchor = m // stride + 1
        anchors = np.empty(n_anchor, dtype=np.intp)
        a = 0
        for i in range(n_anchor):
            anchors[i] = a
            if a >= span:
                anchors[i:] = a  # saturated: every later anchor is the same
                break
            a = int(stride_jump[a])
        lanes = buf_a[: stride * n_anchor].reshape(stride, n_anchor)
        lanes[0] = anchors
        for r in range(1, stride):
            np.take(nxt, lanes[r - 1], out=lanes[r], mode="clip")
        chain = buf_b[: stride * n_anchor]
        chain.reshape(n_anchor, stride)[:] = lanes.T
        return chain[: m + 1]

    def decode(self, reader: BitReader, count: int) -> np.ndarray:
        """Decode ``count`` symbols from ``reader`` (vectorized).

        Works in blocks of at most ``_BLOCK_BITS`` bits.  Per block, every
        bit offset is resolved to a speculative (symbol, next offset) pair
        in one numpy pass — a single gather through the fused
        symbol/length table, plus a canonical pass for the rare windows
        the table cannot resolve; the true codeword chain — starting at
        the current position and following next-offset links — is then
        materialized by :meth:`_extract_chain`, and exactly the symbols
        on the chain are emitted.  Offsets that are never on the chain
        may hold garbage; that is fine, they are never read.  Every
        block-sized array here is a row of :func:`_block_scratch`, written
        in place; the decoder itself allocates only its output.
        """
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if count > reader.remaining:  # every codeword costs >= 1 bit
            raise DecompressionError("huffman stream exhausted")
        tables = self._ensure_decode_table()
        (t, combo, maxlen), has_escapes = tables[:3], tables[7]
        pos = reader.position
        start_pos = pos
        nbits_total = reader.bit_length
        out = np.empty(count, dtype=np.int64)
        produced = 0
        # + 128: the links just past a block (MAX_CODE_LENGTH + 1 of them)
        # and the last, partly idle lane of anchors (at most 127 slots)
        entries, links, buf_a, buf_b, identity = _block_scratch(
            min(_BLOCK_BITS, reader.remaining) + 128
        )
        while produced < count:
            if pos >= nbits_total:
                raise DecompressionError("huffman stream exhausted")
            # never examine more bits than the remaining symbols could use
            span = min(
                _BLOCK_BITS, nbits_total - pos, (count - produced) * max(maxlen, 1)
            )
            # chain-length budget: the worst case is one codeword per bit,
            # but after the first block the observed bits-per-codeword
            # bounds it far tighter (undershoot only costs an extra lap)
            m = min(count - produced, span)
            if produced:
                avg_bits = (pos - start_pos) / produced
                m = min(m, int(span / avg_bits * 1.3) + 64)
            windows = reader.peek_windows(pos, span, t).view(np.int64)
            entry = np.take(combo, windows, out=entries[:span], mode="clip")
            ext = span + MAX_CODE_LENGTH + 1
            nxt = links[:ext]
            nxt[span:] = 0
            step = np.bitwise_and(entry, _ESCAPE_LEN, out=nxt[:span])
            n_esc = 0
            if has_escapes:
                esc = np.flatnonzero(step == _ESCAPE_LEN)
                n_esc = esc.size
                if n_esc:
                    self._resolve_escapes(reader, pos, entry, step, esc, tables)
            # next-offset links, saturating at the first offset past the
            # block (chain entries there keep their value so the block
            # boundary position survives the jump composition)
            nxt += identity[:ext]
            chain = self._extract_chain(nxt, span, m, buf_a, buf_b)
            # symbols whose codeword starts inside this block, gathered
            # straight into the output; the >> 6 runs on just the chain
            # entries, not every bit offset
            k = min(int(np.searchsorted(chain, span, side="left")), m)
            emitted = out[produced : produced + k]
            np.take(entry, chain[:k], out=emitted, mode="clip")
            emitted >>= 6
            if n_esc and emitted.min(initial=0) < 0:
                raise DecompressionError("invalid huffman code")
            produced += k
            pos += int(chain[k])
        if pos > nbits_total:
            raise DecompressionError("huffman stream exhausted")
        reader.advance(pos - reader.position)
        return out

    # -------------------------------------------------------------- serialize
    def serialize(self, writer: BitWriter) -> None:
        """Write the code table (lengths only; codes are canonical)."""
        lengths = self.lengths
        writer.write_uint(lengths.size, 32)
        nz = np.flatnonzero(lengths)
        writer.write_uint(nz.size, 32)
        dense = nz.size * 38 >= lengths.size * 6
        writer.write_uint(1 if dense else 0, 1)
        if dense:
            writer.write_array(lengths.astype(np.uint64), 6)
        else:
            writer.write_array(nz.astype(np.uint64), 32)
            writer.write_array(lengths[nz].astype(np.uint64), 6)

    @classmethod
    def deserialize(
        cls, reader: BitReader, alphabet: Optional[int] = None
    ) -> "HuffmanCode":
        """Read a code table written by :meth:`serialize`; ``alphabet`` is
        the table size the enclosing stream declares, when it does."""
        size = reader.read_uint(32)
        nnz = reader.read_uint(32)
        dense = reader.read_uint(1)
        # reject count fields that promise more table entries than the
        # stream has bits for, before they size any allocation; a sparse
        # table names its size for free, so it must also be the size the
        # stream declares, and never beyond from_frequencies' practical
        # limit — a flipped size field must not allocate gigabytes
        if size > (1 << 28) or alphabet not in (None, size):
            raise DecompressionError("corrupt huffman table (alphabet size)")
        if nnz > size or (6 * size if dense else 38 * nnz) > reader.remaining:
            raise DecompressionError("corrupt huffman table (truncated)")
        lengths = np.zeros(size, dtype=np.uint8)
        if dense:
            lengths[:] = reader.read_array(size, 6).astype(np.uint8)
        else:
            syms = reader.read_array(nnz, 32).astype(np.int64)
            lens = reader.read_array(nnz, 6).astype(np.uint8)
            if nnz and syms.max(initial=0) >= size:
                raise DecompressionError("corrupt huffman table")
            lengths[syms] = lens
        if (lengths > MAX_CODE_LENGTH).any():
            raise DecompressionError("corrupt huffman table (length overflow)")
        # canonical code assignment only stays within each length's code
        # space if the lengths satisfy Kraft's inequality; a corrupt table
        # that violates it would otherwise corrupt the decode-table build
        nz = lengths[lengths > 0].astype(np.int64)
        if nz.size:
            kraft = (np.int64(1) << (MAX_CODE_LENGTH - nz)).sum(dtype=np.int64)
            if kraft > np.int64(1) << MAX_CODE_LENGTH:
                raise DecompressionError("corrupt huffman table (kraft)")
        return cls(lengths)


def _ragged_offsets(reps: np.ndarray) -> np.ndarray:
    """[0..reps[0]), [0..reps[1]), ... concatenated."""
    total = int(reps.sum())
    ends = np.cumsum(reps)
    starts = ends - reps
    return np.arange(total, dtype=np.int64) - np.repeat(starts, reps)

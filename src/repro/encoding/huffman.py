"""Canonical, length-limited Huffman coding over a dense integer alphabet.

The code comes from the textbook heap merge, with one parent link recorded
per merge and every depth read off the links in a single sweep.  Both coding
directions are fully vectorized.  Encoding is a table lookup +
:class:`BitWriter`.  Decoding works in bounded bit-blocks: gather a 32-bit
window at *every* bit offset of the block straight from the packed bytes,
resolve each offset's (symbol, code length) through a 16-bit first-level
table (with a vectorized canonical pass for longer codes), then extract the
actual codeword chain from the per-offset "next position" array: a few
jump compositions, one scalar walk of stride-sized anchor hops, then the
anchor lanes in lockstep.  No per-symbol Python loop, and the block-sized
arrays are one per-thread scratch reused by every block of every stream,
so decode memory is bounded by the block size, not the stream (DESIGN.md
§6).
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
        self._codes: Optional[np.ndarray] = None
        self._decode_table: Optional[tuple] = None

    @property
    def codes(self) -> np.ndarray:
        """Canonical code per symbol, built on first use (only :meth:`encode`
        reads them); not a ``cached_property``, whose class-wide lock (Python
        < 3.12) a pool worker forked mid-computation inherits held."""
        if self._codes is None:
            self._codes = _canonical_codes(self.lengths)
        return self._codes

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
        # canonical (length, symbol) order: the codes count up in it, so
        # each short code's 2^(t-len) rows follow the previous code's and
        # the short codes fill the table from row 0; the rows left over
        # are the escape tail — the long codes' prefixes and, for a
        # Kraft-incomplete code, its unused code space
        syms = np.flatnonzero(lengths)
        sorted_syms = syms[np.argsort(lengths[syms], kind="stable")]
        sorted_lens = lengths[sorted_syms].astype(np.int64)
        n_short = int(np.searchsorted(sorted_lens, t, side="right"))
        reps = np.int64(1) << (t - sorted_lens[:n_short])
        # fused (symbol, length) entry: one gather resolves both.  The
        # length field is 6 bits (max length 32 < 63); 63 marks escapes.
        combo = np.full(1 << t, _ESCAPE_LEN, dtype=np.int64)
        n_rows = int(reps.sum())
        combo[:n_rows] = np.repeat(
            (sorted_syms[:n_short] << 6) | sorted_lens[:n_short], reps
        )
        # canonical fallback arrays for codes longer than t: per length,
        # its code count, its first code, and how many codes are shorter
        count = np.bincount(sorted_lens, minlength=maxlen + 2)
        index = np.cumsum(count) - count
        first_code = np.zeros(maxlen + 2, dtype=np.int64)
        for ln in range(1, maxlen + 1):
            first_code[ln] = (first_code[ln - 1] + count[ln - 1]) << 1
        # the first block's bits per codeword: the mean length under the
        # code's own (Kraft-implied) distribution p = 2^-len
        kraft = np.ldexp(1.0, -sorted_lens)
        mean_len = float(sorted_lens @ kraft / kraft.sum()) if kraft.size else 1.0
        self._decode_table = (
            t,
            combo,
            maxlen,
            first_code,
            count,
            index,
            sorted_syms,
            n_rows < combo.size,
            mean_len,
        )
        return self._decode_table

    def _resolve_escapes(self, reader, pos, entry, step, esc, tables):
        """Vectorized canonical decode for windows the first-level table
        cannot resolve (codes longer than the table width, or the unused
        tail of a Kraft-incomplete code).  Unresolvable windows are marked
        with symbol -1 / step 1; they only matter if the codeword chain
        actually visits them, in which case :meth:`decode` raises."""
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
    def _extract_chain(nxt, m, buf_a, buf_b):
        """Positions after 0..m codewords, following ``nxt`` from offset 0.

        ``nxt`` maps every offset of the block to the offset after one
        codeword and self-loops past the block, so the chain saturates at
        the first position outside the block.  It is composed into a
        stride-sized jump, a scalar walk takes the anchor hops, and the
        anchor lanes advance in lockstep: O(m) gathers.  The compositions
        and lanes live in the scratch rows ``buf_a`` / ``buf_b``; the
        returned chain is a view of one, good until the next block.
        """
        # each composition pass costs O(block); each halving of the anchor
        # walk saves m/stride scalar steps — balance the two
        c = max(2, min(7, (m // 2400).bit_length()))
        stride = 1 << c
        stride_jump = nxt
        for i in range(c):  # ping-pong: never gather into the source
            spare = (buf_b if i & 1 else buf_a)[: nxt.size]
            stride_jump = np.take(stride_jump, stride_jump, out=spare, mode="clip")
        hop = memoryview(stride_jump)
        a = 0
        anchors = [0] + [a := hop[a] for _ in range(m // stride)]
        n_anchor = len(anchors)
        lanes = buf_a[: stride * n_anchor].reshape(stride, n_anchor)
        lanes[0] = anchors
        for r in range(1, stride):
            np.take(nxt, lanes[r - 1], out=lanes[r], mode="clip")
        chain = buf_b[: stride * n_anchor]
        chain.reshape(n_anchor, stride)[:] = lanes.T
        return chain[: m + 1]

    def decode(
        self,
        reader: BitReader,
        count: int,
        dtype: "np.dtype[np.generic] | type" = np.int64,
    ) -> np.ndarray:
        """Decode ``count`` symbols from ``reader`` (vectorized) into an
        array of ``dtype``, which must hold every symbol of the code.

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
            return np.zeros(0, dtype=dtype)
        if count > reader.remaining:  # every codeword costs >= 1 bit
            raise DecompressionError("huffman stream exhausted")
        tables = self._ensure_decode_table()
        t, combo, maxlen = tables[:3]
        has_escapes, bits_per_codeword = tables[7:]
        pos = start_pos = reader.position
        nbits_total = reader.bit_length
        out = np.empty(count, dtype=dtype)
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
            # chain-length budget from the bits per codeword: the code's
            # own mean length in the first block, the observed mean after
            # it (undershoot only costs an extra lap); a codeword costs
            # >= 1 bit, so never more than span
            if produced:
                bits_per_codeword = (pos - start_pos) / produced
            m = min(
                count - produced, span, int(span / bits_per_codeword * 1.3) + 64
            )
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
            chain = self._extract_chain(nxt, m, buf_a, buf_b)
            # symbols whose codeword starts inside this block: their fused
            # entries gathered into the spare row (the lanes are done with
            # it), then the >> 6 writes them into the output in its dtype;
            # both run on just the chain entries, not every bit offset
            k = min(int(np.searchsorted(chain, span, side="left")), m)
            fused = np.take(entry, chain[:k], out=buf_a[:k], mode="clip")
            if n_esc and fused.min(initial=0) < 0:
                raise DecompressionError("invalid huffman code")
            np.right_shift(
                fused, 6, out=out[produced : produced + k], casting="unsafe"
            )
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

"""Vectorized bit-level I/O.

The writer accumulates (value, nbits) fields and packs them at flush time
one *field* at a time, never one bit at a time: shift each to its place in
the 64-bit word that holds its last bit, OR the fields of a word together
(DESIGN.md §6).  The reader is *byte-windowed*: every read gathers 40-bit
windows (5 bytes) around the requested bit positions straight from the
packed buffer — there is no whole-stream ``unpackbits`` expansion, so peak
reader memory is a small constant multiple of the compressed buffer
regardless of how it is sliced.  Bits are MSB-first within each value and
within each byte, so streams are byte-order independent and diffable.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import DecompressionError

_MAX_BITS = 64
#: widest field a single 5-byte window can serve at any bit offset (7 + 33 <= 40)
_NARROW = 33
#: window-cache granularity: bytes of the packed stream whose 40-bit windows
#: are materialized at once (bounds reader scratch memory at 8x this)
_WINDOW_CACHE_BYTES = 1 << 16


class BitWriter:
    """Accumulate values with explicit bit widths; emit packed bytes.

    Scalar ``write_uint`` calls are buffered in plain Python lists and
    folded into one numpy chunk only when an array write needs them —
    header/param-block writers issue hundreds of scalar fields, and a
    one-element array per field dominated their cost; a writer that saw
    nothing else never touches numpy.  Every stored field is 1..64 bits
    wide and holds a value that fits.
    """

    def __init__(self) -> None:
        self._values: List[np.ndarray] = []
        self._lengths: List[np.ndarray] = []
        self._pending_vals: List[int] = []
        self._pending_bits: List[int] = []
        self._total_bits = 0

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._total_bits

    def _flush_scalars(self) -> None:
        """Fold buffered scalar writes into one array chunk (order kept)."""
        if self._pending_vals:
            self._values.append(np.array(self._pending_vals, dtype=np.uint64))
            self._lengths.append(np.array(self._pending_bits, dtype=np.uint8))
            self._pending_vals = []
            self._pending_bits = []

    def write_uint(self, value: int, nbits: int) -> None:
        """Write a single unsigned integer using ``nbits`` bits (0..64)."""
        if nbits == 0:
            return
        if not 0 < nbits <= _MAX_BITS:
            raise ValueError(f"nbits must be in 1..{_MAX_BITS}, got {nbits}")
        value = int(value)
        if value < 0 or (nbits < 64 and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._pending_vals.append(value)
        self._pending_bits.append(nbits)
        self._total_bits += nbits

    def write_array(
        self, values: np.ndarray, nbits: "int | np.integer | np.ndarray"
    ) -> None:
        """Write many unsigned integers.

        ``nbits`` may be a scalar (same width for all) or a per-element
        array of widths 0..64.  Elements with width 0 contribute nothing,
        whatever their value; any other element must fit its width, as in
        :meth:`write_uint` — ``ValueError`` otherwise, because the packer
        would OR the excess bits into the neighbouring fields.
        """
        values = np.ascontiguousarray(values, dtype=np.uint64)
        widths = np.asarray(nbits)
        if widths.size and not 0 <= widths.min() <= widths.max() <= _MAX_BITS:
            raise ValueError(f"nbits must be in 0..{_MAX_BITS}")
        if widths.ndim and widths.shape != values.shape:
            raise ValueError("values/nbits shape mismatch")
        lengths = np.broadcast_to(widths, values.shape).astype(np.uint8).ravel()
        values = values.ravel()
        if not lengths.all():
            keep = np.flatnonzero(lengths)
            values, lengths = values[keep], lengths[keep]
        if values.size == 0:
            return
        # all but a field's lowest bit shifted out must leave 0 or 1
        if (values >> (lengths - np.uint8(1))).max() > 1:
            raise ValueError("value does not fit in its nbits")
        self._flush_scalars()
        self._values.append(values)
        self._lengths.append(lengths)
        self._total_bits += int(lengths.sum(dtype=np.int64))

    def getvalue(self) -> bytes:
        """Pack everything written so far into bytes (zero-padded tail)."""
        nbytes = (self._total_bits + 7) >> 3
        if not self._values:
            acc = 0
            for value, nbits in zip(self._pending_vals, self._pending_bits):
                acc = (acc << nbits) | value
            return (acc << (8 * nbytes - self._total_bits)).to_bytes(nbytes, "big")
        self._flush_scalars()
        values = np.concatenate(self._values)
        lengths = np.concatenate(self._lengths)
        # left shift that puts a field's last bit in place in the word it ends
        # in: minus the bit position just past it, mod 64 (uint8 wraps mod 256)
        shift = -np.cumsum(lengths, dtype=np.uint8) & 63
        # a field is the first to end in its word iff it reaches back to the
        # word's first bit; every word has one (fields are at most a word
        # wide) and only that one can start in the word before
        firsts = np.flatnonzero(shift + lengths >= _MAX_BITS)
        words = np.bitwise_or.reduceat(values << shift, firsts)
        straddle = firsts[1:]
        # bits above the word: a field that starts in its own word has none
        words[:-1] |= (values[straddle] >> (63 - shift[straddle])) >> np.uint8(1)
        return words.astype(">u8").tobytes()[:nbytes]


class BitReader:
    """Serve scalar/vector reads straight from a packed MSB-first buffer.

    All vector reads go through one primitive: gather the 5-byte (40-bit)
    big-endian window that starts at the byte containing each field's first
    bit, then shift/mask the field out.  Fields wider than 33 bits are
    split into two window reads.  The only allocation proportional to the
    stream is a single zero-padded copy of the packed bytes, built lazily
    on the first vector read.
    """

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._buf = np.frombuffer(data, dtype=np.uint8)
        self._nbits = self._buf.size * 8
        if bit_length is not None:
            if bit_length > self._nbits:
                raise DecompressionError("bit stream shorter than declared length")
            self._nbits = int(bit_length)
        self._padded: np.ndarray | None = None
        self._wstart = 0  # first byte covered by the cached windows
        self._wins: np.ndarray | None = None
        self._pos = 0

    @property
    def position(self) -> int:
        """Current bit offset."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Bits left to read."""
        return self._nbits - self._pos

    @property
    def bit_length(self) -> int:
        """Total readable bits in the stream."""
        return self._nbits

    # ------------------------------------------------------------ primitives
    def _pad(self) -> np.ndarray:
        """The packed bytes followed by 8 zero bytes (window overrun room)."""
        if self._padded is None:
            self._padded = np.concatenate(
                [self._buf, np.zeros(8, dtype=np.uint8)]
            )
        return self._padded

    def _windows40(self, first_byte: int, last_byte: int) -> np.ndarray:
        """Cached 40-bit big-endian windows ``W[i] = bytes[wstart+i .. +5)``.

        Covers at least ``[first_byte, last_byte]``; rebuilt (in chunks of
        ``_WINDOW_CACHE_BYTES``) whenever a read leaves the cached range,
        so sequential readers build each window exactly once and scratch
        memory stays bounded no matter how large the stream is.
        """
        W = self._wins
        if W is None or first_byte < self._wstart or last_byte >= self._wstart + W.size:
            p = self._pad()
            n = max(last_byte - first_byte + 1, _WINDOW_CACHE_BYTES)
            n = min(n, p.size - 4 - first_byte)
            W = p[first_byte : first_byte + n].astype(np.uint64)
            for k in range(1, 5):
                W <<= np.uint64(8)
                W |= p[first_byte + k : first_byte + k + n]
            self._wstart = first_byte
            self._wins = W
        return W

    def _extract(
        self, starts: np.ndarray, widths: "int | np.ndarray"
    ) -> np.ndarray:
        """Fields of ``widths`` (<= 33) bits at sorted bit positions
        ``starts``.

        ``starts`` must lie inside the padded buffer; fields past the
        logical end read as zero bits (callers bound-check).
        """
        W = self._windows40(int(starts[0]) >> 3, int(starts[-1]) >> 3)
        idx = (starts >> 3) - self._wstart
        off = starts & 7
        if np.isscalar(widths):
            shift = (40 - int(widths) - off).astype(np.uint64)
            mask = np.uint64((1 << int(widths)) - 1)
        else:
            shift = (40 - widths - off).astype(np.uint64)
            mask = (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
        return (W[idx] >> shift) & mask

    def peek_windows(self, start: int, count: int, width: int) -> np.ndarray:
        """``width``-bit (<= 33) windows at ``count`` consecutive bit
        positions ``start, start+1, ...`` without consuming anything.

        Windows may run past the logical stream end (they then read the
        buffer's zero tail padding); callers must validate the final bit
        position of whatever they decode from them.  This is the primitive
        behind the vectorized Huffman decoder.
        """
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        if not 0 < width <= _NARROW:
            raise ValueError(f"window width must be in 1..{_NARROW}")
        if start < 0 or start >= self._nbits:
            raise DecompressionError("window start outside bit stream")
        # consecutive positions visit every bit phase of every byte, so the
        # gather degenerates: shift the byte windows once per phase and
        # interleave, which is ~2 passes instead of a full-size gather
        first_byte = start >> 3
        last_byte = (start + count - 1) >> 3
        W = self._windows40(first_byte, last_byte)
        Wv = W[first_byte - self._wstart : last_byte - self._wstart + 1]
        phased = np.empty((Wv.size, 8), dtype=np.uint64)
        mask = np.uint64((1 << width) - 1)
        for phase in range(8):
            np.bitwise_and(
                Wv >> np.uint64(40 - width - phase), mask, out=phased[:, phase]
            )
        lo = start - 8 * first_byte
        return phased.reshape(-1)[lo : lo + count]

    def peek_windows_at(self, positions: np.ndarray, width: int) -> np.ndarray:
        """``width``-bit (<= 33) windows at sorted in-stream bit
        ``positions`` (ascending), without consuming anything.  Same
        end-of-stream caveat as :meth:`peek_windows`."""
        if positions.size == 0:
            return np.zeros(0, dtype=np.uint64)
        if not 0 < width <= _NARROW:
            raise ValueError(f"window width must be in 1..{_NARROW}")
        if int(positions[0]) < 0 or int(positions[-1]) >= self._nbits:
            raise DecompressionError("window position outside bit stream")
        return self._extract(positions, width)

    # ----------------------------------------------------------------- reads
    def read_uint(self, nbits: int) -> int:
        """Read one unsigned integer of ``nbits`` bits."""
        if nbits == 0:
            return 0
        if nbits > self.remaining:
            raise DecompressionError("bit stream exhausted")
        pos = self._pos
        first = pos >> 3
        last = (pos + nbits + 7) >> 3
        word = int.from_bytes(self._buf[first:last].tobytes(), "big")
        self._pos = pos + nbits
        drop = 8 * (last - first) - (pos - 8 * first) - nbits
        return (word >> drop) & ((1 << nbits) - 1)

    def read_array(self, count: int, nbits: int) -> np.ndarray:
        """Read ``count`` fixed-width unsigned integers (vectorized)."""
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        if nbits == 0:
            # zero-width symbols consume no stream bits, so the usual
            # need<=remaining backstop does not apply; every in-tree call
            # site passes a count derived from an already-validated
            # header quantity or an actual read
            return np.zeros(count, dtype=np.uint64)
        need = count * nbits
        if need > self.remaining:
            raise DecompressionError("bit stream exhausted")
        starts = self._pos + np.arange(count, dtype=np.int64) * nbits
        if nbits <= _NARROW:
            out = self._extract(starts, nbits)
        else:
            hi_w = nbits - 32
            hi = self._extract(starts, hi_w)
            lo = self._extract(starts + hi_w, 32)
            out = (hi << np.uint64(32)) | lo
        self._pos += need
        return out

    def read_varwidth_array(self, widths: np.ndarray) -> np.ndarray:
        """Read integers with per-element widths (uint8 array, 0 allowed)."""
        widths = np.asarray(widths, dtype=np.int64)
        total = int(widths.sum())
        if total > self.remaining:
            raise DecompressionError("bit stream exhausted")
        if widths.size == 0:
            return np.zeros(0, dtype=np.uint64)
        ends = np.cumsum(widths)
        starts = self._pos + ends - widths
        self._pos += total
        narrow = widths <= _NARROW
        if narrow.all():
            return self._extract(starts, widths)
        out = np.zeros(widths.size, dtype=np.uint64)
        if narrow.any():
            out[narrow] = self._extract(starts[narrow], widths[narrow])
        wide = ~narrow
        hi_w = widths[wide] - 32
        hi = self._extract(starts[wide], hi_w)
        lo = self._extract(starts[wide] + hi_w, 32)
        out[wide] = (hi << np.uint64(32)) | lo
        return out

    def advance(self, nbits: int) -> None:
        """Skip ``nbits`` bits (used by the Huffman decoder)."""
        if nbits > self.remaining:
            raise DecompressionError("bit stream exhausted")
        self._pos += nbits

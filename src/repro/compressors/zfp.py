"""ZFP-like transform-based error-bounded compression (Lindstrom, TVCG 2014).

Structure follows ZFP's fixed-accuracy mode: the array is split into 4^d
blocks; each block is converted to block floating point (common exponent),
decorrelated with an exactly-invertible integer transform, reordered from
low to high "frequency", mapped to negabinary, and coded bit-plane by
bit-plane with a per-plane zero-group flag.  The number of planes kept per
block is derived from the tolerance and the block exponent, so precision
adapts per block exactly like ZFP's accuracy mode.

Deviations from real ZFP (documented in DESIGN.md §3): the decorrelating
transform is a two-level Haar (S-transform) cascade instead of ZFP's
non-orthogonal lift (ours is exactly invertible in integers, which keeps
the error analysis clean), and the embedded group-testing coder is
simplified to per-plane flags.  A final verification pass stores exact
values for any point that would violate the bound, making the bound strict
(real ZFP's accuracy mode is also conservative, but via analysis).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.compressors.base import (
    Compressor,
    patch_violations,
    register,
    store_violations,
)
from repro.compressors.regression import blockify, pad_to_blocks, unblockify
from repro.core.header import pack_sections, unpack_sections
from repro.encoding.bitstream import BitReader, BitWriter
from repro.errors import DecompressionError
from repro.utils import ceil_div

#: block edge (ZFP uses 4 in every dimension)
BLOCK = 4
#: fixed-point scale exponent: x in [-1,1) maps to round(x * 2**Q)
Q = 40
#: negabinary mask (alternating bits, covers Q + transform growth)
_NB_MASK = np.int64(0x2AAAAAAAAAAAAA)  # 54-bit 10-pattern
#: highest encoded bit-plane (fixed-point width + growth headroom)
P_TOP = Q + 8


def _s_forward(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exactly invertible S-transform: (mean, difference)."""
    d = a - b
    s = b + (d >> 1)  # == floor((a + b) / 2)
    return s, d


def _s_inverse(s: np.ndarray, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    b = s - (d >> 1)
    a = b + d
    return a, b


def _transform_axis(blocks: np.ndarray, axis: int, inverse: bool) -> None:
    """Two-level Haar cascade along one length-4 axis, in place."""
    idx = [slice(None)] * blocks.ndim

    def pick(i):
        idx[axis] = i
        return tuple(idx)

    v0, v1, v2, v3 = (blocks[pick(i)].copy() for i in range(4))
    if not inverse:
        s0, d0 = _s_forward(v0, v1)
        s1, d1 = _s_forward(v2, v3)
        ss, ds = _s_forward(s0, s1)
        out = (ss, ds, d0, d1)
    else:
        ss, ds, d0, d1 = v0, v1, v2, v3
        s0, s1 = _s_inverse(ss, ds)
        a0, b0 = _s_inverse(s0, d0)
        a1, b1 = _s_inverse(s1, d1)
        out = (a0, b0, a1, b1)
    for i, arr in enumerate(out):
        blocks[pick(i)] = arr


#: per-position frequency level of the 1-D transform output [ss, ds, d0, d1]
_LEVEL_1D = np.array([0, 1, 2, 2])


def _scan_order(ndim: int) -> np.ndarray:
    """Flat permutation ordering coefficients from low to high frequency."""
    grids = np.meshgrid(*([_LEVEL_1D] * ndim), indexing="ij")
    level = np.zeros_like(grids[0])
    for g in grids:
        level = level + g
    return np.argsort(level.ravel(), kind="stable")


def _group_bounds(ndim: int):
    """Coefficient-group boundaries (by total frequency level, scan order).

    Bit planes are coded group by group with one zero-test flag each —
    the simplified stand-in for ZFP's embedded group testing.  High-
    frequency groups are almost always zero on the upper planes, so the
    flags prune most of the raw bits.
    """
    grids = np.meshgrid(*([_LEVEL_1D] * ndim), indexing="ij")
    level = np.zeros_like(grids[0])
    for g in grids:
        level = level + g
    sorted_levels = np.sort(level.ravel(), kind="stable")
    boundaries = np.flatnonzero(np.diff(sorted_levels)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [sorted_levels.size]])
    return list(zip(starts.tolist(), ends.tolist()))


def _to_negabinary(i: np.ndarray) -> np.ndarray:
    return ((i + _NB_MASK) ^ _NB_MASK).astype(np.uint64)


def _from_negabinary(u: np.ndarray) -> np.ndarray:
    return (u.astype(np.int64) ^ _NB_MASK) - _NB_MASK


def _plane_cut(emax: np.ndarray, eb: float, ndim: int) -> np.ndarray:
    """Lowest bit-plane that must be kept per block (accuracy mode).

    Dropping planes below ``k`` perturbs each transform coefficient by
    < 2**k; the inverse Haar cascade amplifies that by < 2**(2*ndim), and
    the fixed-point scale is 2**(emax - Q) — keep planes down to the k
    where the product stays under the tolerance.
    """
    gain_bits = 1  # empirically calibrated; violations go to the exact store
    k = np.floor(np.log2(eb)) - emax + Q - gain_bits
    return np.clip(k, 0, P_TOP).astype(np.int64)


@register
class ZFP(Compressor):
    """ZFP-style fixed-accuracy transform codec."""

    name = "zfp"
    codec_id = 4

    def _compress(self, data: np.ndarray, eb: float) -> bytes:
        padded = pad_to_blocks(data, BLOCK)
        nd = padded.ndim
        flat = blockify(padded, BLOCK)
        nb, m = flat.shape

        maxabs = np.abs(flat).max(axis=1)
        nonzero = maxabs > 0
        emax = np.zeros(nb, dtype=np.int64)
        emax[nonzero] = np.frexp(maxabs[nonzero])[1]  # maxabs < 2**emax
        scale = np.ldexp(1.0, (Q - emax))
        ints = np.rint(flat * scale[:, None]).astype(np.int64)

        tblocks = ints.reshape((nb,) + (BLOCK,) * nd)
        for axis in range(1, nd + 1):
            _transform_axis(tblocks, axis, inverse=False)
        order = _scan_order(nd)
        coeffs = tblocks.reshape(nb, m)[:, order]

        u = _to_negabinary(coeffs)
        kcut = _plane_cut(emax, eb, nd)
        encode_block = nonzero & (kcut < P_TOP)

        # per-block top plane: position of the highest set bit among coeffs
        blockmax = u.max(axis=1)
        pstart = np.zeros(nb, dtype=np.int64)
        nz = blockmax > 0
        pstart[nz] = np.frexp(blockmax[nz].astype(np.float64))[1]  # < 2**pstart
        pstart = np.minimum(pstart, P_TOP)

        writer = BitWriter()
        writer.write_array(encode_block.astype(np.uint64), 1)
        writer.write_array((emax[encode_block] + 2048).astype(np.uint64), 12)
        writer.write_array(pstart[encode_block].astype(np.uint64), 6)
        groups = _group_bounds(nd)
        for p in range(P_TOP - 1, -1, -1):
            active = encode_block & (kcut <= p) & (p < pstart)
            if not active.any():
                continue
            plane = (u[active] >> np.uint64(p)) & np.uint64(1)
            for lo, hi in groups:
                width = hi - lo
                sub = plane[:, lo:hi]
                words = (sub << np.arange(width, dtype=np.uint64)).sum(
                    axis=1, dtype=np.uint64
                )
                flags = words != 0
                writer.write_array(flags.astype(np.uint64), 1)
                if flags.any():
                    writer.write_array(words[flags], width)
        body = writer.getvalue()

        # verification pass: exact storage for bound violations
        recon = self._reconstruct(
            u, encode_block, emax, kcut, nd, padded.shape
        )
        crop = tuple(slice(0, n) for n in data.shape)
        hw = BitWriter()
        hw.write_uint(0, 1)  # reserved
        hw.write_uint(len(body), 64)
        exact = store_violations(hw, data, recon[crop], eb)
        sections = [hw.getvalue(), body, exact]
        return pack_sections(sections)

    def _reconstruct(self, u, encode_block, emax, kcut, nd, padded_shape):
        """Shared decode path: coefficients -> field (float64)."""
        nb, m = u.shape
        # zero the dropped planes
        shift = kcut.astype(np.uint64)
        mask = (~np.uint64(0)) << shift  # per-block keep-mask
        u_kept = (u & mask[:, None]) * encode_block[:, None].astype(np.uint64)
        coeffs = _from_negabinary(u_kept)
        order = _scan_order(nd)
        inv_order = np.argsort(order)
        tblocks = coeffs[:, inv_order].reshape((nb,) + (BLOCK,) * nd)
        for axis in range(nd, 0, -1):
            _transform_axis(tblocks, axis, inverse=True)
        ints = tblocks.reshape(nb, m).astype(np.float64)
        scale = np.ldexp(1.0, (emax - Q))
        flat = ints * scale[:, None]
        return unblockify(flat, padded_shape, BLOCK)

    def _decompress(self, payload: bytes, header) -> np.ndarray:
        sections = unpack_sections(payload)
        if len(sections) != 3:
            raise DecompressionError("ZFP payload must have 3 sections")
        hr = BitReader(sections[0])
        hr.read_uint(1)
        hr.read_uint(64)  # body length

        shape = header.shape
        nd = len(shape)
        padded_shape = tuple(ceil_div(n, BLOCK) * BLOCK for n in shape)
        # exact: a forged header dim must not wrap the block count
        nb = math.prod(n // BLOCK for n in padded_shape)
        m = BLOCK**nd
        eb = header.error_bound

        reader = BitReader(sections[1])
        encode_block = reader.read_array(nb, 1).astype(bool)
        n_enc = int(encode_block.sum())
        emax = np.zeros(nb, dtype=np.int64)
        emax[encode_block] = reader.read_array(n_enc, 12).astype(np.int64) - 2048
        pstart = np.zeros(nb, dtype=np.int64)
        pstart[encode_block] = reader.read_array(n_enc, 6).astype(np.int64)
        kcut = _plane_cut(emax, eb, nd)

        u = np.zeros((nb, m), dtype=np.uint64)
        groups = _group_bounds(nd)
        for p in range(P_TOP - 1, -1, -1):
            active = encode_block & (kcut <= p) & (p < pstart)
            n_active = int(active.sum())
            if n_active == 0:
                continue
            plane = np.zeros((n_active, m), dtype=np.uint64)
            for lo, hi in groups:
                width = hi - lo
                flags = reader.read_array(n_active, 1).astype(bool)
                words = np.zeros(n_active, dtype=np.uint64)
                if flags.any():
                    words[flags] = reader.read_array(int(flags.sum()), width)
                plane[:, lo:hi] = (
                    words[:, None] >> np.arange(width, dtype=np.uint64)
                ) & np.uint64(1)
            u_active = u[active]
            u_active |= plane << np.uint64(p)
            u[active] = u_active

        recon = self._reconstruct(u, encode_block, emax, kcut, nd, padded_shape)
        crop = tuple(slice(0, n) for n in shape)
        out = np.ascontiguousarray(recon[crop])
        patch_violations(out, hr, sections[2])
        return out

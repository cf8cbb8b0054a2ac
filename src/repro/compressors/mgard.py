"""MGARD+-like multilevel error-bounded compression (Liang et al., IEEE TC
2021; Ainsworth et al. for the original MGARD).

MGARD decomposes the field into a hierarchy of multilevel *detail
coefficients* (value minus multilinear interpolation from the next coarser
grid), quantizes every coefficient uniformly with level-scaled bins, and
entropy-codes the result.  Unlike the SZ family the decomposition is
*open-loop*: details are computed from the original data, and the L-infinity
guarantee comes from budgeting the per-level bins so the accumulated
reconstruction error stays below the bound — we assign level ``l`` (1 =
finest) the bin budget ``eb / 2**l``, whose geometric sum is below ``eb``
for interior interpolation weights.  Points where boundary extrapolation
exceeds the budget (rare) are recorded exactly, keeping the bound strict.

Deviation from real MGARD+ (DESIGN.md §3): we drop the Galerkin
L2-projection "update" step, keeping only the interpolation details.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, register
from repro.core.engine import (
    assemble_plan,
    execute_passes,
    interp_decompress,
    seed_known_points,
)
from repro.core.header import pack_sections, unpack_sections
from repro.core.interpolation import LINEAR
from repro.core.levels import ORDER_FORWARD, max_level_for_shape
from repro.core.stream import decode_interp_payload, pack_interp_payload
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.lossless import (
    compress_floats_lossless,
    decompress_floats_lossless,
)
from repro.errors import DecompressionError
from repro.quantize.linear import LinearQuantizer


def _level_budgets(eb: float, max_level: int) -> dict:
    """Geometric per-level bin budgets: sum_l eb/2**l < eb."""
    return {l: eb / (2.0**l) for l in range(1, max_level + 1)}


@register
class MGARDPlus(Compressor):
    """MGARD+-like multilevel codec (open-loop hierarchical details)."""

    name = "mgard"
    codec_id = 5

    def _compress(self, data: np.ndarray, eb: float) -> bytes:
        top = max_level_for_shape(data.shape)
        budgets = _level_budgets(eb, top)
        plan = assemble_plan(
            budgets,
            dict.fromkeys(budgets, (LINEAR, ORDER_FORWARD)),
            cast_dtype=data.dtype,
        )
        work = data.astype(np.float64, copy=True)
        known = seed_known_points(work, plan)
        quantizer = LinearQuantizer(radius=plan.radius, cast_dtype=data.dtype)
        # open loop: predictions from original values throughout
        execute_passes(work, plan, quantizer, compress=True, closed_loop=False)
        codes, outliers = quantizer.harvest()

        # replay the decoder to find points over the accumulated budget
        recon = interp_decompress(data.shape, plan, codes, outliers, known)
        delivered = recon.astype(data.dtype).astype(np.float64)
        bad = np.abs(np.asarray(data, np.float64) - delivered) > eb
        bad_idx = np.flatnonzero(bad.ravel())
        bad_vals = np.asarray(data, np.float64).ravel()[bad_idx]

        writer = BitWriter()
        writer.write_uint(bad_idx.size, 64)
        writer.write_array(bad_idx.astype(np.uint64), 64)
        sections = [
            pack_interp_payload(plan, top, known, codes, outliers, data.dtype),
            writer.getvalue(),
            compress_floats_lossless(bad_vals.astype(data.dtype)),
        ]
        return pack_sections(sections)

    def _decompress(self, payload: bytes, header) -> np.ndarray:
        sections = unpack_sections(payload)
        if len(sections) != 3:
            raise DecompressionError("MGARD payload must have 3 sections")
        recon = decode_interp_payload(sections[0], header)
        reader = BitReader(sections[1])
        n_bad = reader.read_uint(64)
        if n_bad:
            bad_idx = reader.read_array(n_bad, 64).astype(np.int64)
            bad_vals = decompress_floats_lossless(
                sections[2], max_values=recon.size
            ).astype(np.float64)
            if bad_vals.size != n_bad or int(bad_idx.min()) < 0 or int(
                bad_idx.max()
            ) >= recon.size:
                raise DecompressionError("corrupt outlier index stream")
            flat = recon.ravel()
            flat[bad_idx] = bad_vals
        return recon

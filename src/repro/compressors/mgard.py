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

from repro.compressors.base import (
    Compressor,
    patch_violations,
    register,
    store_violations,
)
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
        writer = BitWriter()
        exact = store_violations(writer, data, recon, eb)
        sections = [
            pack_interp_payload(plan, top, known, codes, outliers, data.dtype),
            writer.getvalue(),
            exact,
        ]
        return pack_sections(sections)

    def _decompress(self, payload: bytes, header) -> np.ndarray:
        sections = unpack_sections(payload)
        if len(sections) != 3:
            raise DecompressionError("MGARD payload must have 3 sections")
        recon = decode_interp_payload(sections[0], header)
        patch_violations(recon, BitReader(sections[1]), sections[2])
        return recon

"""SZ3: dynamic spline-interpolation error-bounded compression (Zhao et al.,
ICDE 2021) — the baseline QoZ extends.

SZ3 uses the multi-level interpolation predictor with a *single*
interpolator (selected once, globally, from sampled data), a *uniform*
error bound across levels, and no anchor grid: the interpolation spans the
whole array from one root point, which is exactly the long-range-
interpolation weakness QoZ's anchors fix (paper §V-B1).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.compressors.base import Compressor, register
from repro.core.engine import interp_decompress
from repro.core.interpolation import METHOD_IDS
from repro.core.levels import ORDER_FORWARD
from repro.core.plan_cache import FrozenPlan
from repro.core.sampling import sample_blocks
from repro.core.selection import select_global_interpolator
from repro.core.stream import unpack_interp_payload
from repro.errors import ConfigurationError
from repro.quantize.linear import DEFAULT_RADIUS

#: default fraction of points used for interpolator selection
DEFAULT_SAMPLE_RATE = 0.01
DEFAULT_SAMPLE_BLOCK = 32


@register
class SZ3(Compressor):
    """SZ3 baseline (interpolation + linear quantization + Huffman/RLE)."""

    name = "sz3"
    codec_id = 1
    derives_plan = True

    def __init__(
        self,
        method: str = "auto",
        order_id: int = ORDER_FORWARD,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        sample_block: int = DEFAULT_SAMPLE_BLOCK,
        radius: int = DEFAULT_RADIUS,
    ) -> None:
        """``method``: 'auto' (sampled selection), 'linear' or 'cubic'."""
        if method != "auto" and method not in METHOD_IDS:
            raise ConfigurationError(
                f"method must be 'auto', 'linear' or 'cubic', got {method!r}"
            )
        self.method = method
        self.order_id = order_id
        self.sample_rate = sample_rate
        self.sample_block = sample_block
        self.radius = radius

    def _derive(
        self, data: np.ndarray, eb: float, data_range: Optional[float],
        fan_out=None,
    ) -> Tuple[FrozenPlan, None]:
        """The sampled interpolator selection, frozen.

        SZ3's plan has no (alpha, beta) — a uniform bound across levels is
        ``alpha = beta = 1`` in Eq. 5 terms — so freezing captures just
        the global interpolator choice and the quantizer radius.
        """
        if self.method != "auto":
            choice = METHOD_IDS[self.method], self.order_id
        else:
            blocks, _ = sample_blocks(data, self.sample_block, self.sample_rate)
            choice = select_global_interpolator(blocks, eb, self.radius)
        plan = FrozenPlan(
            codec=self.name,
            eb=eb,
            interpolators={1: choice},
            anchor_stride=0,
            radius=self.radius,
        )
        return plan, None

    def _decompress(self, payload: bytes, header) -> np.ndarray:
        plan, _top, known, codes, outliers = unpack_interp_payload(
            payload, header.dtype, max_points=math.prod(header.shape)
        )
        return interp_decompress(header.shape, plan, codes, outliers, known)

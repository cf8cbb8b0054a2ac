"""The shared multi-level interpolation compression engine.

Both SZ3 and QoZ are thin wrappers around :func:`execute_passes`: they
differ only in the *plan* — per-level error bounds, interpolation method,
dimension order, and whether an anchor grid caps the level count.  The
engine also runs in *batched* mode over a stack of sampled blocks, which is
how QoZ's online selection and tuning evaluate candidate plans cheaply
(paper §VI) — one vectorized engine run scores every sampled block at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.interpolation import CUBIC, predict_targets
from repro.core.levels import (
    ORDER_FORWARD,
    anchor_count,
    anchor_slices,
    level_entry,
    pass_schedule,
    top_level,
)
from repro.errors import DecompressionError
from repro.quantize.linear import DEFAULT_RADIUS, LinearQuantizer


@dataclass(frozen=True)
class LevelPlan:
    """Per-level knobs: error bound + interpolator."""

    eb: float
    method: int = CUBIC
    order_id: int = ORDER_FORWARD


@dataclass
class InterpPlan:
    """Complete plan for one interpolation compression run.

    ``levels[l]`` configures level ``l`` (1 = finest).  ``anchor_stride``
    of 0 means no anchors (SZ3 mode: single root point, level count from
    the shape).
    """

    levels: Dict[int, LevelPlan]
    anchor_stride: int = 0
    radius: int = DEFAULT_RADIUS
    cast_dtype: type = np.float64  # dtype delivered to the user (bound check)

    def max_level(self, shape: Sequence[int]) -> int:
        """Top interpolation level for a shape under this plan."""
        return top_level(shape, self.anchor_stride)

    def level_plan(self, level: int) -> LevelPlan:
        """Plan for one level; levels above the top reuse the top's."""
        return level_entry(self.levels, level)


def assemble_plan(
    ebs: Mapping[int, float],
    interpolators: Mapping[int, Tuple[int, int]],
    anchor_stride: int = 0,
    radius: int = DEFAULT_RADIUS,
    cast_dtype: "np.dtype[np.generic] | type" = np.float64,
) -> InterpPlan:
    """The one engine-plan builder: each level's bound and ``(method,
    order_id)`` zipped into its :class:`LevelPlan`."""
    levels = {l: LevelPlan(e, *interpolators[l]) for l, e in ebs.items()}
    return InterpPlan(levels, anchor_stride, radius, cast_dtype)


@dataclass
class PassStats:
    """Per-level absolute prediction error accumulator (Algorithm 1)."""

    abs_err_sum: Dict[int, float]
    count: Dict[int, int]

    def __init__(self) -> None:
        self.abs_err_sum = {}
        self.count = {}

    def record(self, level: int, abs_errors: np.ndarray) -> None:
        """Accumulate one pass's |value - prediction| samples."""
        self.abs_err_sum[level] = self.abs_err_sum.get(level, 0.0) + float(
            abs_errors.sum()
        )
        self.count[level] = self.count.get(level, 0) + abs_errors.size

    def mean_abs_error(self, level: int) -> float:
        """Mean absolute prediction error observed at a level."""
        n = self.count.get(level, 0)
        return self.abs_err_sum.get(level, 0.0) / n if n else 0.0


def execute_passes(
    work: np.ndarray,
    plan: InterpPlan,
    quantizer: LinearQuantizer,
    compress: bool,
    batch: bool = False,
    stats: Optional[PassStats] = None,
    only_level: Optional[int] = None,
    closed_loop: bool = True,
) -> None:
    """Run all prediction passes over ``work`` in place.

    Compression progressively replaces values with their reconstructions
    (so later passes predict from what the decompressor will see);
    decompression fills values in from the quantizer's stored streams in
    the identical order.  With ``batch=True`` the leading axis of ``work``
    is a stack of independent blocks sharing the same plan.  ``only_level``
    restricts execution to a single level (selection trials).

    ``closed_loop=False`` (compression only) keeps predicting from the
    *original* values instead of the reconstructions — the open-loop
    multilevel decomposition used by the MGARD+ stand-in, where
    quantization errors are handled by the decomposition's error budget
    rather than by prediction feedback.
    """
    shape = work.shape[1:] if batch else work.shape
    top = plan.max_level(shape)
    levels = [only_level] if only_level is not None else range(top, 0, -1)
    for level in levels:
        lp = plan.level_plan(level)
        for index, perm, m in pass_schedule(shape, level, lp.order_id, batch):
            view = work[index].transpose(perm)
            even = view[..., ::2]
            pred = predict_targets(even, m, lp.method)
            targets = view[..., 1::2]
            if compress:
                # quantize_block reads its inputs fully before returning,
                # and `targets` is only overwritten afterwards — the strided
                # view can be consumed in place, no contiguous copy needed
                if stats is not None:
                    stats.record(level, np.abs(targets - pred))
                recon = quantizer.quantize(targets, pred, lp.eb)
                if closed_loop:
                    targets[...] = recon
            else:
                recon = quantizer.dequantize(pred.size, pred, lp.eb)
                targets[...] = recon
            # a pass's prediction and reconstruction (up to a field's
            # worth each) go before the next pass allocates its own
            del pred, recon


def seed_known_points(
    work: np.ndarray, plan: InterpPlan, batch: bool = False
) -> np.ndarray:
    """Extract the losslessly-kept points (anchor grid or root).

    On the compression side ``work`` holds the original data and the
    returned array is what must be stored; on the decompression side call
    :func:`plant_known_points` with the stored values instead.
    """
    shape = work.shape[1:] if batch else work.shape
    if plan.anchor_stride:
        sl = anchor_slices(len(shape), plan.anchor_stride)
        sl = ((slice(None),) if batch else ()) + sl
        return work[sl].copy()
    root = ((slice(None),) if batch else ()) + (0,) * len(shape)
    return np.atleast_1d(work[root]).copy()


def plant_known_points(
    work: np.ndarray, plan: InterpPlan, values: np.ndarray
) -> None:
    """Write the losslessly-stored points into a fresh work array."""
    if plan.anchor_stride:
        sl = anchor_slices(work.ndim, plan.anchor_stride)
        work[sl] = values.reshape(work[sl].shape)
    else:
        work[(0,) * work.ndim] = float(values.reshape(-1)[0])


def interp_compress(
    data: np.ndarray,
    plan: InterpPlan,
    batch: bool = False,
    stats: Optional[PassStats] = None,
    keep_work: bool = True,
):
    """Full compression run.

    Returns ``(codes, outliers, known, work)`` — quantization codes in
    pass order (the quantizer's narrow type, uint16 at the default
    radius), exact outlier values, losslessly-kept points, and the
    reconstruction the decompressor will produce (useful for online
    metric evaluation without a decompression round-trip).  Callers that
    discard the reconstruction should pass ``keep_work=False``: the full
    float64 work array is then released before the function returns
    (``work`` comes back as ``None``), so it is not alive while the
    caller entropy-codes the result.
    """
    work = data.astype(np.float64, copy=True)
    known = seed_known_points(work, plan, batch=batch)
    quantizer = LinearQuantizer(radius=plan.radius, cast_dtype=plan.cast_dtype)
    execute_passes(work, plan, quantizer, compress=True, batch=batch, stats=stats)
    codes, outliers = quantizer.harvest()
    if not keep_work:
        work = None
    return codes, outliers, known, work


def interp_decompress(
    shape: Sequence[int],
    plan: InterpPlan,
    codes: np.ndarray,
    outliers: np.ndarray,
    known: np.ndarray,
) -> np.ndarray:
    """Inverse of :func:`interp_compress` (one field, not a stack);
    ``codes`` may be any non-negative integer array, int64 included."""
    # every point is either a seeded known point or carries one quant
    # code; a mismatch means the header shape or the payload is corrupt —
    # check with exact int arithmetic before sizing any allocation off
    # the (attacker-controlled) shape
    total = math.prod(shape)
    seeds = anchor_count(shape, plan.anchor_stride) if plan.anchor_stride else 1
    if known.size != seeds or known.size + codes.size != total:
        raise DecompressionError(
            f"payload carries {known.size} known + {codes.size} coded "
            f"points for a shape of {total}"
        )
    work = np.zeros(tuple(shape), dtype=np.float64)
    plant_known_points(work, plan, known)
    quantizer = LinearQuantizer(
        radius=plan.radius, codes=codes, outliers=outliers
    )
    execute_passes(work, plan, quantizer, compress=False)
    return work

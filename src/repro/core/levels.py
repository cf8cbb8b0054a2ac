"""Multi-level grid geometry: pass traversal and anchor-point layout.

A *level* ``l`` works with stride ``s = 2**(l-1)``.  Within a level the
dimensions are visited in a configurable order; the pass on axis ``d``
targets points whose ``d``-coordinate is an odd multiple of ``s`` while
axes visited earlier sit on the ``s`` grid and axes visited later on the
``2s`` grid (exactly SZ3's propagation policy, paper Fig. 3).  Every
non-anchor point is targeted by exactly one pass, and each pass's
predictions depend only on points finished in earlier passes — which is
what makes each pass fully vectorizable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils import ceil_div, is_pow2

#: dimension-order identifiers (paper §VI-B tests increasing/decreasing)
ORDER_FORWARD = 0
ORDER_BACKWARD = 1
ORDER_NAMES = {ORDER_FORWARD: "forward", ORDER_BACKWARD: "backward"}


def dim_order(ndim: int, order_id: int) -> Tuple[int, ...]:
    """Concrete axis order for an order identifier."""
    if order_id == ORDER_FORWARD:
        return tuple(range(ndim))
    if order_id == ORDER_BACKWARD:
        return tuple(range(ndim - 1, -1, -1))
    raise ConfigurationError(f"unknown dimension order {order_id}")


def max_level_for_shape(shape: Sequence[int]) -> int:
    """Smallest L with 2**L >= max extent: SZ3's level count."""
    top = max(shape)
    level = 0
    while (1 << level) < top:
        level += 1
    return max(level, 1)


def max_level_for_anchor(anchor_stride: int) -> int:
    """Interpolation level count when an anchor grid of this stride exists."""
    if not is_pow2(anchor_stride):
        raise ConfigurationError(
            f"anchor stride must be a power of two, got {anchor_stride}"
        )
    return max(anchor_stride.bit_length() - 1, 1)


@dataclass(frozen=True)
class PassSpec:
    """One vectorized prediction pass."""

    level: int  # 1 = finest
    stride: int  # 2**(level-1)
    axis: int  # axis being interpolated along
    view_slices: Tuple[slice, ...]  # line-view selector on the full array
    grid_len: int  # line-view length along `axis`
    n_targets: int  # total points quantized by this pass


def level_pass_specs(
    shape: Sequence[int], level: int, order: Sequence[int]
) -> Iterator[PassSpec]:
    """Yield the passes of one level in execution order."""
    s = 1 << (level - 1)
    ndim = len(shape)
    if sorted(order) != list(range(ndim)):
        raise ConfigurationError(f"invalid dimension order {order!r} for {ndim}-D")
    for pos, axis in enumerate(order):
        slices = [slice(None)] * ndim
        counts = []
        for other_pos, other_axis in enumerate(order):
            if other_axis == axis:
                continue
            step = s if other_pos < pos else 2 * s
            slices[other_axis] = slice(0, None, step)
            counts.append(ceil_div(shape[other_axis], step))
        slices[axis] = slice(0, None, s)
        g = ceil_div(shape[axis], s)
        m = g // 2
        if m == 0:
            continue
        n_targets = m * int(np.prod(counts, dtype=np.int64)) if counts else m
        yield PassSpec(
            level=level,
            stride=s,
            axis=axis,
            view_slices=tuple(slices),
            grid_len=g,
            n_targets=n_targets,
        )


class ScheduledPass(NamedTuple):
    """One pass of :func:`level_pass_specs`, resolved for the engine."""

    index: Tuple[slice, ...]  # basic index of the line view on the work array
    perm: Tuple[int, ...]  # transpose putting the interpolated axis last
    line_targets: int  # odd-index targets per line (``grid_len // 2``)


@lru_cache(maxsize=512)
def pass_schedule(
    shape: Tuple[int, ...], level: int, order_id: int, batch: bool
) -> Tuple[ScheduledPass, ...]:
    """The passes of one level, ready to execute.

    :func:`level_pass_specs` is the specification of the traversal; this
    is the same traversal with everything the engine derived per pass —
    the index tuple (with the leading block axis when ``batch``) and the
    axis move of ``np.moveaxis(view, axis, -1)`` as a transpose
    permutation — worked out once per ``(shape, level, order_id,
    batch)``.  Selection trials, tuning trials, plan execution and
    decoding all walk a handful of such keys thousands of times.  The
    entries hold only slices and ints (no arrays, nothing of the data),
    and the cache is bounded, so a server seeing many shapes stays flat.
    """
    off = 1 if batch else 0
    lead = (slice(None),) * off
    ndim = len(shape) + off
    out = []
    for spec in level_pass_specs(shape, level, dim_order(len(shape), order_id)):
        axis = spec.axis + off
        perm = tuple(a for a in range(ndim) if a != axis) + (axis,)
        out.append(ScheduledPass(lead + spec.view_slices, perm, spec.grid_len // 2))
    return tuple(out)


def anchor_slices(ndim: int, anchor_stride: int) -> Tuple[slice, ...]:
    """Selector of the lossless anchor grid ``X[::A, ::A, ...]``."""
    return tuple(slice(0, None, anchor_stride) for _ in range(ndim))


def anchor_count(shape: Sequence[int], anchor_stride: int) -> int:
    """Number of anchor points for a shape."""
    return int(np.prod([ceil_div(n, anchor_stride) for n in shape], dtype=np.int64))


def total_pass_targets(shape: Sequence[int], max_level: int) -> int:
    """Total number of interpolated points across all levels.

    Used to sanity-check stream bookkeeping: anchors/root + targets must
    cover the array exactly once.
    """
    total = 0
    for level in range(max_level, 0, -1):
        for spec in level_pass_specs(shape, level, tuple(range(len(shape)))):
            total += spec.n_targets
    return total

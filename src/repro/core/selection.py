"""Level-adapted best-fit interpolator selection (paper Algorithm 1).

Candidates are {linear, cubic} x {increasing, decreasing dimension order}
(the paper restricts the 2^d! permutations to the two index orders, which
"cover the best choices in almost all cases").  Selection runs trial
compression of one level at a time over the sampled blocks and keeps the
candidate whose quantization bins would code smallest (Shannon entropy; the
paper's mean-L1 criterion is a proxy for the same quantity and breaks
ties — see ``_trial_level``).  The chosen candidate's reconstruction
advances the block state so lower levels are selected against what the
decompressor will actually see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.engine import PassStats, assemble_plan, execute_passes
from repro.core.interpolation import CUBIC, LINEAR
from repro.core.levels import (
    ORDER_BACKWARD,
    ORDER_FORWARD,
    dim_order,
    level_entry,
    max_level_for_shape,
)
from repro.quantize.linear import DEFAULT_RADIUS, LinearQuantizer

#: the four interpolator candidates of Algorithm 1
CANDIDATES: Tuple[Tuple[int, int], ...] = (
    (LINEAR, ORDER_FORWARD),
    (LINEAR, ORDER_BACKWARD),
    (CUBIC, ORDER_FORWARD),
    (CUBIC, ORDER_BACKWARD),
)


def distinct_candidates(ndim: int) -> Tuple[Tuple[int, int], ...]:
    """The Algorithm 1 candidates with redundant trials removed.

    Two candidates are interchangeable when their order ids resolve to the
    same axis traversal (always the case for 1-D data, where forward and
    backward collapse) — trial-compressing both would score identical
    plans twice.  The first occurrence is kept, so selection outcomes are
    unchanged.
    """
    seen = set()
    out = []
    for method, order_id in CANDIDATES:
        key = (method, dim_order(ndim, order_id))
        if key in seen:
            continue
        seen.add(key)
        out.append((method, order_id))
    return tuple(out)


@dataclass
class SelectionResult:
    """Chosen interpolator per level plus the observed L1 errors."""

    per_level: Dict[int, Tuple[int, int]]  # level -> (method, order_id)
    l1_errors: Dict[int, float]  # level -> winning mean L1 error

    def interpolator(self, level: int) -> Tuple[int, int]:
        """Interpolator for a level; levels above the sampled blocks' top
        level reuse the highest selected one (paper §VI-B)."""
        return level_entry(self.per_level, level)


def _trial_level(
    work: np.ndarray, level: int, eb: float, method: int, order_id: int, radius: int
) -> Tuple[float, float, np.ndarray]:
    """Run one level with one candidate on a copy.

    Returns ``(score, l1, new_state)``.  The score is the estimated coded
    size of the level's quantization bins (Shannon bits per point, plus
    the exact-outlier cost).  The paper ranks candidates by mean absolute
    prediction error as a proxy for exactly this quantity; scoring the
    bins directly is more robust at the small sample sizes our reduced
    datasets force (see EXPERIMENTS.md), and they agree when L1 is
    informative.
    """
    trial = work.copy()
    plan = assemble_plan({level: eb}, {level: (method, order_id)}, radius=radius)
    stats = PassStats()
    quantizer = LinearQuantizer(radius=radius)
    execute_passes(
        trial, plan, quantizer, compress=True, batch=True, stats=stats,
        only_level=level,
    )
    codes, outliers = quantizer.harvest()
    if codes.size:
        counts = np.bincount(codes - codes.min())
        counts = counts[counts > 0].astype(np.float64)
        p = counts / counts.sum()
        score = float(-(p * np.log2(p)).sum()) + 64.0 * outliers.size / codes.size
    else:
        score = 0.0
    return score, stats.mean_abs_error(level), trial


def score_level_candidates(
    work: np.ndarray, candidates: Sequence[Tuple[int, int]],
    level: int, eb: float, radius: int,
) -> List[Tuple[float, float]]:
    """``(score, l1)`` of each candidate at one level, end states dropped."""
    return [_trial_level(work, level, eb, m, o, radius)[:2] for m, o in candidates]


def select_interpolators(
    blocks: np.ndarray, eb: float, radius: int = DEFAULT_RADIUS, *, fan_out=None
) -> SelectionResult:
    """Algorithm 1: per-level best-fit interpolator over sampled blocks.

    ``fan_out`` (see :data:`repro.core.tuning.FanOut`) scores level 1's
    candidates all at once: nothing reads that level's end state, so they
    are independent.  The upper levels each start from the last winner's.
    """
    block_shape = blocks.shape[1:]
    top = max_level_for_shape(block_shape)
    candidates = distinct_candidates(len(block_shape))
    work = blocks.astype(np.float64, copy=True)
    per_level: Dict[int, Tuple[int, int]] = {}
    l1: Dict[int, float] = {}
    for level in range(top, 0, -1):
        if level == 1 and fan_out is not None:
            scored = fan_out(score_level_candidates, work, candidates, 1, eb, radius)
            k = min(range(len(scored)), key=scored.__getitem__)  # first minimum
            per_level[1], l1[1] = candidates[k], scored[k][1]
            break
        best_score = np.inf
        best_l1 = np.inf
        best = candidates[0]
        best_state = None
        for method, order_id in candidates:
            score, err, state = _trial_level(
                work, level, eb, method, order_id, radius
            )
            if (score, err) < (best_score, best_l1):
                best_score, best_l1 = score, err
                best, best_state = (method, order_id), state
        per_level[level] = best
        l1[level] = best_l1
        work = best_state  # advance with the winner's reconstruction
    return SelectionResult(per_level=per_level, l1_errors=l1)


def select_global_interpolator(
    blocks: np.ndarray, eb: float, radius: int = DEFAULT_RADIUS
) -> Tuple[int, int]:
    """SZ3-style selection: one interpolator for every level.

    Scores each candidate by total absolute prediction error of a full
    trial compression over the sampled blocks.
    """
    block_shape = blocks.shape[1:]
    top = max_level_for_shape(block_shape)
    levels = range(1, top + 1)
    best_err = np.inf
    best = CANDIDATES[0]
    for method, order_id in distinct_candidates(len(block_shape)):
        plan = assemble_plan(
            dict.fromkeys(levels, eb),
            dict.fromkeys(levels, (method, order_id)),
            radius=radius,
        )
        stats = PassStats()
        quantizer = LinearQuantizer(radius=radius)
        execute_passes(
            blocks.astype(np.float64, copy=True),
            plan,
            quantizer,
            compress=True,
            batch=True,
            stats=stats,
        )
        total = sum(stats.abs_err_sum.values())
        if total < best_err:
            best_err, best = total, (method, order_id)
    return best

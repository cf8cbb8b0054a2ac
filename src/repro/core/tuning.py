"""Quality-metric-oriented (alpha, beta) auto-tuning (paper §VI-C).

The level-wise error bound is ``e_l = e / min(alpha**(l-1), beta)``
(paper Eq. 5).  Candidates are the paper's narrowed grid
(alpha in {1, 1.25, 1.5, 1.75, 2}, beta in {1.5, 2, 3, 4}).  Each candidate
is scored by a trial compression over the sampled blocks: estimated bit
rate (Shannon size of the quantization-bin token stream) plus the value of
the user's quality metric on the trial reconstruction.  Candidates are
compared pairwise with the paper's Table I logic; the "sophisticated"
cases (one candidate wins rate, the other wins quality) are resolved by a
second trial of the incumbent challenger at 0.8e / 1.2e and a line-side
test in (bit-rate, metric) space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import InterpPlan, LevelPlan, interp_compress
from repro.core.selection import SelectionResult
from repro.encoding.codec import estimate_stream_bits
from repro.errors import ConfigurationError
from repro.metrics.autocorr import error_autocorrelation
from repro.metrics.psnr import psnr
from repro.metrics.ssim import SsimReference, ssim, ssim_reference
from repro.quantize.linear import DEFAULT_RADIUS

#: paper §VI-C1 candidate grids
ALPHA_CANDIDATES: Tuple[float, ...] = (1.0, 1.25, 1.5, 1.75, 2.0)
BETA_CANDIDATES: Tuple[float, ...] = (1.5, 2.0, 3.0, 4.0)

#: supported tuning targets; 'cr' = maximize compression ratio only
TUNING_METRICS = ("cr", "psnr", "ssim", "ac")

#: an Eq. 5 bound vector ``(e_1, ..., e_L)`` is all a trial depends on;
#: its ``(bit rate, metric | None)`` is all it yields
BoundVector = Tuple[float, ...]
Score = Tuple[float, Optional[float]]
#: ``fan_out(fn, stack, items, *spec)`` returns ``fn(stack, items, *spec)``,
#: computed anywhere (``ChunkWorkPool.map_stack`` deals items to workers)
FanOut = Callable[..., list]


def level_error_bounds(
    eb: float, alpha: float, beta: float, max_level: int
) -> Dict[int, float]:
    """Paper Eq. 5: ``e_l = e / min(alpha**(l-1), beta)`` for each level."""
    if alpha < 1.0 or beta < 1.0:
        raise ConfigurationError("alpha and beta must be >= 1")
    return {
        l: eb / min(alpha ** (l - 1), beta) if l > 1 else eb
        for l in range(1, max_level + 1)
    }


def build_plan(
    eb: float,
    alpha: float,
    beta: float,
    selection: SelectionResult,
    max_level: int,
    anchor_stride: int,
    radius: int = DEFAULT_RADIUS,
) -> InterpPlan:
    """Assemble a complete engine plan from tuned knobs.

    The single authoritative Eq. 5 expansion: tuning trials and
    frozen-plan execution (:meth:`FrozenPlan.build_interp_plan`) both run
    it.  ``selection`` is anything with an ``interpolator(level)`` method
    (a :class:`SelectionResult` or a :class:`FrozenPlan`).
    """
    ebs = level_error_bounds(eb, alpha, beta, max_level)
    interpolators = {l: selection.interpolator(l) for l in ebs}
    return _assemble_plan(ebs, interpolators, anchor_stride, radius)


def _assemble_plan(
    ebs: Dict[int, float],
    interpolators: Dict[int, Tuple[int, int]],
    anchor_stride: int,
    radius: int,
) -> InterpPlan:
    """Engine plan from already-expanded per-level bounds."""
    levels = {}
    for l, e in ebs.items():
        method, order_id = interpolators[l]
        levels[l] = LevelPlan(eb=e, method=method, order_id=order_id)
    return InterpPlan(levels=levels, anchor_stride=anchor_stride, radius=radius)


@dataclass
class TrialResult:
    """(bit rate, metric) of one candidate on the sampled blocks."""

    alpha: float
    beta: float
    bit_rate: float
    metric: Optional[float]  # higher is better; None in 'cr' mode


@dataclass
class TuningOutcome:
    """Winner plus the full trace of candidate evaluations."""

    alpha: float
    beta: float
    trials: List[TrialResult] = field(default_factory=list)
    extra_trials: int = 0  # sophisticated-case re-trials (Table I cases 3/4)
    trial_compressions: int = 0  # engine runs actually executed
    cache_hits: int = 0  # trials answered from the bound-vector memo


def _evaluate_candidate(
    blocks: np.ndarray,
    plan: InterpPlan,
    metric: str,
    data_range: float,
    ssim_ref: Optional[SsimReference],
) -> Score:
    """Trial-compress the sampled blocks and score (bit rate, metric).

    ``ssim_ref`` holds the SSIM terms of ``blocks`` themselves, which no
    candidate changes (``None`` unless the metric is 'ssim').
    """
    # in 'cr' mode no reconstruction metric is evaluated, so the trial's
    # full-stack float64 reconstruction is dropped inside the engine
    codes, outliers, _known, work = interp_compress(
        blocks, plan, batch=True, keep_work=metric != "cr"
    )
    bits = estimate_stream_bits(codes) + 64.0 * outliers.size
    rate = bits / blocks.size
    value: Optional[float] = None
    if metric == "psnr":
        value = psnr_with_range(blocks, work, data_range)
    elif metric == "ssim":
        value = ssim(
            blocks, work, data_range=data_range, batch=True, reference=ssim_ref
        )
    elif metric == "ac":
        value = -abs(error_autocorrelation(blocks, work))
    return rate, value


def score_bound_vectors(
    blocks: np.ndarray,
    vectors: Sequence[BoundVector],
    interpolators: Dict[int, Tuple[int, int]],
    radius: int,
    metric: str,
    data_range: float,
    ssim_ref: Optional[SsimReference] = None,
) -> List[Score]:
    """One engine run per bound vector.  Every trial, wherever it runs, is
    this function: the Table I loop calls it per vector, a pool worker on
    its share of the first round."""
    if metric == "ssim" and ssim_ref is None:
        ssim_ref = ssim_reference(blocks, batch=True)
    return [
        _evaluate_candidate(
            blocks,
            _assemble_plan(dict(enumerate(v, 1)), interpolators, 0, radius),
            metric, data_range, ssim_ref,
        )
        for v in vectors
    ]


def psnr_with_range(original, reconstructed, data_range: float) -> float:
    """PSNR against an externally-supplied value range (the full dataset's,
    not the sampled blocks')."""
    if data_range == 0.0:
        return float("inf")
    m = np.mean(
        (np.asarray(original, np.float64) - np.asarray(reconstructed, np.float64))
        ** 2
    )
    if m == 0.0:
        return float("inf")
    return float(20.0 * np.log10(data_range / np.sqrt(m)))


def _line_side_compare(
    incumbent: TrialResult,
    challenger: TrialResult,
    challenger_retrial: TrialResult,
) -> bool:
    """Table I cases 3/4: True when the challenger wins.

    The challenger's two results define a line in (bit-rate, metric)
    space; the incumbent loses if its point lies below that line
    (worse metric for its rate than the challenger's trade-off curve).
    """
    b1, m1 = incumbent.bit_rate, incumbent.metric
    b2, m2 = challenger.bit_rate, challenger.metric
    b3, m3 = challenger_retrial.bit_rate, challenger_retrial.metric
    if b3 == b2:
        return m2 > m1  # degenerate line: fall back to metric comparison
    slope = (m3 - m2) / (b3 - b2)
    m_line = m2 + slope * (b1 - b2)
    return m1 < m_line


def tune_parameters(
    blocks: np.ndarray,
    eb: float,
    selection: SelectionResult,
    max_level: int,
    metric: str = "cr",
    data_range: float = 1.0,
    radius: int = DEFAULT_RADIUS,
    alphas: Tuple[float, ...] = ALPHA_CANDIDATES,
    betas: Tuple[float, ...] = BETA_CANDIDATES,
    *,
    fan_out: Optional[FanOut] = None,
) -> TuningOutcome:
    """Pick (alpha, beta) for the user's quality metric (paper Table I).

    ``fan_out`` scores the first round's distinct bound vectors ahead of
    the loop, which then consumes them as if it had just run each one:
    same winner, same counters.
    """
    if metric not in TUNING_METRICS:
        raise ConfigurationError(
            f"metric must be one of {TUNING_METRICS}, got {metric!r}"
        )
    if not alphas or not betas:
        raise ConfigurationError("alphas and betas must each name a candidate")
    outcome = TuningOutcome(alpha=1.0, beta=1.0)
    # what no candidate changes is worked out once, so a trial pays only
    # for its own Eq. 5 bound vector
    interpolators = {l: selection.interpolator(l) for l in range(1, max_level + 1)}
    ssim_ref = ssim_reference(blocks, batch=True) if metric == "ssim" else None
    spec = (interpolators, radius, metric, data_range)

    def bound_vector(eb_trial: float, alpha: float, beta: float) -> BoundVector:
        return tuple(level_error_bounds(eb_trial, alpha, beta, max_level).values())

    # Eq. 5 caps the per-level bounds at ``min(alpha**(l-1), beta)``, so
    # distinct (alpha, beta) pairs frequently share one bound vector (every
    # alpha=1 candidate does, and large alphas saturate beta quickly at
    # small max_level).  A trial's (bit rate, metric) depends only on that
    # vector, so trials are memoized by it — Table I re-trials at 0.8e/1.2e
    # hit the same cache.  Scores are reused bit-for-bit, which keeps the
    # winner identical to exhaustively re-running every candidate.
    memo: Dict[BoundVector, Score] = {}
    # The first round's vectors are known up front and independent, so
    # they can be scored all at once; re-trials depend on the running
    # comparison and stay inline.
    ahead: Dict[BoundVector, Score] = {}
    if fan_out is not None:
        first = list(
            dict.fromkeys(bound_vector(eb, a, b) for a in alphas for b in betas)
        )
        ahead = dict(zip(first, fan_out(score_bound_vectors, blocks, first, *spec)))

    def evaluate(eb_trial: float, alpha: float, beta: float) -> TrialResult:
        key = bound_vector(eb_trial, alpha, beta)
        score = memo.get(key)
        if score is not None:
            outcome.cache_hits += 1
        else:
            score = ahead.pop(key, None) or score_bound_vectors(
                blocks, [key], *spec, ssim_ref
            )[0]
            outcome.trial_compressions += 1
            memo[key] = score
        return TrialResult(alpha, beta, *score)

    best: Optional[TrialResult] = None
    for alpha in alphas:
        for beta in betas:
            trial = evaluate(eb, alpha, beta)
            outcome.trials.append(trial)
            if best is None:
                best = trial
                continue
            if metric == "cr":
                if trial.bit_rate < best.bit_rate:
                    best = trial
                continue
            # Table I comparison: I = best (incumbent), II = trial
            if trial.bit_rate <= best.bit_rate and trial.metric >= best.metric:
                best = trial  # case 2 (from II's perspective): II dominates
            elif trial.bit_rate >= best.bit_rate and trial.metric <= best.metric:
                pass  # case 1: incumbent dominates
            else:
                # cases 3/4: re-trial the challenger at a shifted bound
                eb2 = 0.8 * eb if best.metric > trial.metric else 1.2 * eb
                retrial = evaluate(eb2, trial.alpha, trial.beta)
                outcome.extra_trials += 1
                if _line_side_compare(best, trial, retrial):
                    best = trial
    outcome.alpha, outcome.beta = best.alpha, best.beta
    return outcome

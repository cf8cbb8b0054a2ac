"""QoZ — the paper's quality-metric-oriented error-bounded compressor.

Pipeline (paper Fig. 2): uniform block sampling -> level-wise best-fit
interpolator selection (Algorithm 1) -> (alpha, beta) auto-tuning for the
user's quality metric (Table I) -> anchored multi-level interpolation
prediction + linear quantization -> Huffman/RLE encoding.

Ablation knobs reproduce the paper's Fig. 12 variants:

====================  ==========================================
paper variant         constructor arguments
====================  ==========================================
SZ3                   use :class:`repro.compressors.sz3.SZ3`
SZ3 + AP              ``selection='none', tune=False``
SZ3 + AP + S          ``selection='global', tune=False``
SZ3 + AP + S + LIS    ``selection='level', tune=False``
QoZ (full)            defaults
====================  ==========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.compressors.base import Compressor, register
from repro.core.engine import interp_decompress
from repro.core.interpolation import CUBIC
from repro.core.levels import (
    ORDER_FORWARD,
    max_level_for_anchor,
    max_level_for_shape,
)
from repro.core.plan_cache import FrozenPlan, PlanExecution
from repro.core.sampling import sample_blocks
from repro.core.selection import SelectionResult, select_interpolators
from repro.core.stream import unpack_interp_payload
from repro.core.tuning import (
    TUNING_METRICS,
    TuningOutcome,
    tune_parameters,
)
from repro.errors import ConfigurationError
from repro.quantize.linear import DEFAULT_RADIUS
from repro.utils import value_range

#: paper §VII-A4 experimental configuration.  One deviation: the paper
#: samples 16^3 blocks for 3-D data; at our reduced dataset sizes those
#: tiles are too shallow (their top interpolation level is boundary-
#: dominated) and mis-rank interpolators, so the default block matches the
#: anchor stride (32^3) — see EXPERIMENTS.md.
DEFAULTS_2D = dict(anchor_stride=64, sample_block=64, sample_rate=0.01)
DEFAULTS_3D = dict(anchor_stride=32, sample_block=32, sample_rate=0.005)

_SELECTION_MODES = ("none", "global", "level")

#: sampled stacks smaller than one default 3-D block (32^3 points) are
#: analysed inline: their independent trials cost less than the ~1 ms it
#: takes to ship them to workers (EXPERIMENTS.md §14)
FAN_OUT_MIN_POINTS = 32**3

#: what ``_derive`` hands ``_note_execution`` besides the plan
_Trace = Tuple[Optional[SelectionResult], Optional[TuningOutcome]]


@dataclass
class CompressionReport:
    """Diagnostics of the last compression (tuning trace, choices made)."""

    alpha: float
    beta: float
    selection: Optional[SelectionResult]
    tuning: Optional[TuningOutcome]
    max_level: int
    anchor_stride: int
    n_outliers: int
    n_codes: int
    #: the frozen derivation behind this compression — reusable via
    #: :meth:`QoZ.compress_with_plan`; None when a shared plan was executed
    plan: Optional[FrozenPlan] = None
    #: True when this compression reused a plan instead of deriving one
    from_plan: bool = False


@register
class QoZ(Compressor):
    """Quality-metric-oriented error-bounded lossy compressor (SC22)."""

    name = "qoz"
    codec_id = 2
    derives_plan = True

    def __init__(
        self,
        metric: str = "cr",
        anchor_stride: Optional[int] = None,
        sample_block: Optional[int] = None,
        sample_rate: Optional[float] = None,
        selection: str = "level",
        tune: bool = True,
        alpha: Optional[float] = None,
        beta: Optional[float] = None,
        radius: int = DEFAULT_RADIUS,
    ) -> None:
        """Configure a QoZ codec.

        ``metric``: 'cr' (maximize compression ratio), 'psnr', 'ssim' or
        'ac' — the paper's user-specified inclined quality metric.
        ``alpha``/``beta``: fix Eq. 5's parameters instead of auto-tuning
        (both must be given; disables ``tune``).
        """
        if metric not in TUNING_METRICS:
            raise ConfigurationError(
                f"metric must be one of {TUNING_METRICS}, got {metric!r}"
            )
        if selection not in _SELECTION_MODES:
            raise ConfigurationError(
                f"selection must be one of {_SELECTION_MODES}, got {selection!r}"
            )
        if (alpha is None) != (beta is None):
            raise ConfigurationError("give both alpha and beta or neither")
        self.metric = metric
        self.anchor_stride = anchor_stride
        self.sample_block = sample_block
        self.sample_rate = sample_rate
        self.selection = selection
        self.tune = tune and alpha is None
        self.fixed_alpha = alpha
        self.fixed_beta = beta
        self.radius = radius
        #: populated by every compress() call
        self.last_report: Optional[CompressionReport] = None

    # ----------------------------------------------------------- defaults
    def _resolved_config(self, ndim: int) -> Dict[str, float]:
        base = DEFAULTS_2D if ndim <= 2 else DEFAULTS_3D
        return dict(
            anchor_stride=self.anchor_stride or base["anchor_stride"],
            sample_block=self.sample_block or base["sample_block"],
            sample_rate=self.sample_rate or base["sample_rate"],
        )

    # ------------------------------------------------------ plan derivation
    def _derive(
        self, data: np.ndarray, eb: float, data_range: Optional[float],
        fan_out=None,
    ) -> Tuple[FrozenPlan, _Trace]:
        """The analysis half of Fig. 2: sampling + selection + tuning.

        Touches ``data`` only through block-sized reads (plus one min/max
        scan when a reconstruction metric needs the value range), so a
        memory-mapped field stays out of core.
        """
        cfg = self._resolved_config(data.ndim)
        anchor = int(cfg["anchor_stride"])
        max_level = min(
            max_level_for_anchor(anchor), max_level_for_shape(data.shape)
        )

        needs_samples = self.selection != "none" or self.tune
        blocks = None
        if needs_samples:
            blocks, _b = sample_blocks(
                data, int(cfg["sample_block"]), float(cfg["sample_rate"])
            )

        if blocks is not None and blocks.size < FAN_OUT_MIN_POINTS:
            fan_out = None
        selection = self._run_selection(blocks, eb, fan_out)
        alpha, beta, tuning = self._run_tuning(
            blocks, eb, selection, max_level, data, data_range, fan_out
        )
        frozen = FrozenPlan(
            codec=self.name,
            eb=eb,
            alpha=alpha,
            beta=beta,
            interpolators=dict(selection.per_level),
            anchor_stride=anchor,
            radius=self.radius,
            metric=self.metric,
        )
        return frozen, (
            selection if self.selection != "none" else None, tuning
        )

    def _note_execution(
        self,
        plan: FrozenPlan,
        execution: PlanExecution,
        trace: Optional[_Trace],
    ) -> None:
        selection, tuning = trace or (None, None)
        self.last_report = CompressionReport(
            alpha=plan.alpha,
            beta=plan.beta,
            selection=selection,
            tuning=tuning,
            max_level=execution.max_level,
            anchor_stride=plan.anchor_stride,
            n_outliers=execution.n_outliers,
            n_codes=execution.n_codes,
            plan=plan if trace else None,
            from_plan=trace is None,
        )

    def _run_selection(self, blocks, eb: float, fan_out=None) -> SelectionResult:
        if self.selection == "none" or blocks is None:
            return SelectionResult(
                per_level={1: (CUBIC, ORDER_FORWARD)}, l1_errors={}
            )
        result = select_interpolators(blocks, eb, self.radius, fan_out=fan_out)
        if self.selection == "global":
            # one interpolator everywhere: reuse the finest level's winner
            # (it covers the bulk of the points)
            winner = result.per_level[1]
            return SelectionResult(per_level={1: winner}, l1_errors=result.l1_errors)
        return result

    def _run_tuning(
        self,
        blocks,
        eb: float,
        selection: SelectionResult,
        max_level: int,
        data,
        data_range: Optional[float] = None,
        fan_out=None,
    ) -> Tuple[float, float, Optional[TuningOutcome]]:
        if self.fixed_alpha is not None:
            return float(self.fixed_alpha), float(self.fixed_beta), None
        if not self.tune or blocks is None:
            return 1.0, 1.0, None
        # only the reconstruction metrics consume the value range; 'cr' and
        # 'ac' tuning skip the full min/max scan entirely
        if data_range is None and self.metric in ("psnr", "ssim"):
            data_range = value_range(data)
        outcome = tune_parameters(
            blocks,
            eb,
            selection,
            max_level,
            metric=self.metric,
            data_range=1.0 if data_range is None else data_range,
            radius=self.radius,
            fan_out=fan_out,
        )
        return outcome.alpha, outcome.beta, outcome

    # --------------------------------------------------------- decompress
    def _decompress(self, payload: bytes, header) -> np.ndarray:
        plan, _top, known, codes, outliers = unpack_interp_payload(
            payload, header.dtype, max_points=math.prod(header.shape)
        )
        return interp_decompress(header.shape, plan, codes, outliers, known)

"""Frozen compression plans: derive once, execute everywhere.

QoZ's online pipeline (paper Fig. 2) runs block sampling, Algorithm 1
interpolator selection, and the Eq. 5 (alpha, beta) grid search before a
single payload byte is produced.  All of that work answers one question —
*which plan to run* — and the answer does not change between the chunks of
one field compressed under one bound.  This module holds both halves:

* :class:`FrozenPlan` is the small, picklable answer: tuned (alpha, beta),
  the selected per-level interpolators, and the geometry knobs.  It is
  shape-free — per-level bounds and the level count are re-derived for
  whatever array it is applied to, so one plan derived from a full field
  drives every chunk (and broadcasts cheaply to pool workers).
* :func:`execute_frozen_plan` is the execution half: expand the frozen
  plan into a concrete :class:`~repro.core.engine.InterpPlan` for one
  array and produce the standard interpolation payload.  It is the only
  execution :class:`~repro.compressors.base.Compressor` has for a plan,
  whether the call derived it or was handed it, so a stream compressed
  with a frozen plan is byte-identical to ``compress`` deriving the same
  plan.

The error-bound guarantee is unaffected by plan sharing: the linear
quantizer verifies every point against the bound at execution time, so a
plan tuned on one sample can never violate the bound on another chunk —
only its compression ratio is (mildly) at stake.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import InterpPlan, interp_compress
from repro.core.levels import max_level_for_anchor, max_level_for_shape
from repro.core.stream import pack_interp_payload
from repro.core.tuning import build_plan
from repro.errors import ConfigurationError
from repro.quantize.linear import DEFAULT_RADIUS


@dataclass(frozen=True)
class FrozenPlan:
    """Everything QoZ/SZ3 derive online, frozen for reuse.

    ``interpolators`` maps level -> (method, order_id) with the usual
    fallback: levels above the highest recorded one reuse it (paper
    §VI-B).  ``eb`` records the absolute bound the plan was derived at;
    execution defaults to it but may override (alpha/beta rescale the
    per-level bounds from whatever bound is in force).  ``metric`` is
    provenance only — which quality metric the tuning optimized — and
    never affects execution.
    """

    codec: str
    eb: float
    alpha: float = 1.0
    beta: float = 1.0
    interpolators: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    anchor_stride: int = 0
    radius: int = DEFAULT_RADIUS
    metric: str = "cr"

    def interpolator(self, level: int) -> Tuple[int, int]:
        """Interpolator for a level (levels above the top reuse the top)."""
        if level in self.interpolators:
            return self.interpolators[level]
        return self.interpolators[max(self.interpolators)]

    def max_level(self, shape: Sequence[int]) -> int:
        """Top interpolation level for a concrete array shape."""
        if self.anchor_stride:
            return min(
                max_level_for_anchor(self.anchor_stride),
                max_level_for_shape(shape),
            )
        return max_level_for_shape(shape)

    def build_interp_plan(
        self,
        shape: Sequence[int],
        eb: float,
        cast_dtype: "np.dtype[np.generic] | type" = np.float64,
    ) -> Tuple[InterpPlan, int]:
        """Expand into a concrete engine plan for one array shape.

        Delegates to :func:`repro.core.tuning.build_plan` — the same
        Eq. 5 expansion the tuning trials run — so frozen-plan execution
        can never drift from what tuning scored.
        """
        if not self.interpolators:
            raise ConfigurationError("frozen plan has no interpolator levels")
        top = self.max_level(shape)
        plan = build_plan(
            eb, self.alpha, self.beta, self, top, self.anchor_stride, self.radius
        )
        plan.cast_dtype = cast_dtype
        return plan, top


@dataclass
class PlanExecution:
    """Diagnostics of one frozen-plan execution."""

    max_level: int
    n_codes: int
    n_outliers: int


def execute_frozen_plan(
    data: np.ndarray, frozen: FrozenPlan, eb: float
) -> Tuple[bytes, PlanExecution]:
    """Compress ``data`` under a frozen plan; returns (payload, stats).

    The execution half of the interpolation compressors, reached only
    through :meth:`repro.compressors.base.Compressor._execute`.
    """
    plan, top = frozen.build_interp_plan(data.shape, eb, cast_dtype=data.dtype)
    codes, outliers, known, _ = interp_compress(data, plan, keep_work=False)
    payload = pack_interp_payload(plan, top, known, codes, outliers, data.dtype)
    return payload, PlanExecution(
        max_level=top, n_codes=int(codes.size), n_outliers=int(outliers.size)
    )


# --------------------------------------------------------------------------
# Cross-request plan reuse (the service layer's cache)
# --------------------------------------------------------------------------

def field_signature(
    data: np.ndarray, family: Optional[str] = None
) -> Tuple[str, ...]:
    """Identity of a field for plan-cache keying.

    Without a ``family`` tag the signature fingerprints the *content*
    (dtype, shape, 128-bit blake2b of the raw bytes): two requests hit the
    same cache slot only when they carry bit-identical fields, so a cached
    plan replays the exact plan inline derivation would produce and the
    output stays byte-identical.  A ``family`` tag opts into the looser —
    and far more valuable — sharing the paper's workloads want: sibling
    fields of one simulation dump (time steps, velocity components) tag
    themselves with one family name and reuse the plan derived from the
    first member.  The error bound is still enforced point-wise at
    execution time, so family sharing can only ever trade compression
    ratio, never correctness (see the module docstring).
    """
    data = np.asanyarray(data)
    if family is not None:
        return ("family", str(family), str(data.dtype))
    arr = np.ascontiguousarray(data)
    digest = hashlib.blake2b(
        memoryview(arr).cast("B"), digest_size=16
    ).hexdigest()
    return ("content", str(arr.dtype), repr(tuple(arr.shape)), digest)


def plan_cache_key(
    codec: str,
    codec_kwargs: Optional[Dict],
    eb_mode: str,
    bound: float,
    signature: Tuple[str, ...],
) -> Hashable:
    """Canonical cache key: (codec config, bound request, field identity).

    ``eb_mode`` is ``"abs"`` or ``"rel"`` and ``bound`` the user-specified
    number — the *request*, not the resolved absolute bound, so an
    absolute bound that happens to equal a resolved relative one cannot
    alias.  Codec kwargs are part of the codec's identity (a ``psnr``-mode
    QoZ derives a different plan than a ``cr``-mode one).
    """
    kwargs = tuple(sorted((codec_kwargs or {}).items()))
    return (codec, kwargs, eb_mode, float(bound), signature)


class PlanLRU:
    """Bounded, thread-safe LRU of :class:`FrozenPlan` objects.

    The service scheduler keys this by :func:`plan_cache_key`; a hit
    skips sampling, selection, and tuning entirely — the amortizable half
    of QoZ compression.  Counters (``hits`` / ``misses`` / ``derives``)
    are part of the public contract: tests pin "a warm request does not
    re-derive" on them.

    :meth:`get_or_derive` runs the derive callable *outside* the lock —
    derivation takes orders of magnitude longer than a dict move — with
    one derive in flight per key: a thread that misses while another is
    deriving that key waits and takes its plan.  Under a ``family=`` key
    each request would derive from its own data, so without this two
    concurrent first requests could run under different plans.

    ``on_derive`` is the replication hook of the sharded serve runtime
    (:mod:`repro.service.planbus`): called with ``(key, plan)`` after every
    *fresh* derivation — never on hits or on :meth:`install` — so one
    shard's derivation work can be published to its peers.  It runs
    outside the lock on the deriving thread; implementations must be
    thread-safe and must not raise (publishing is best-effort).
    :meth:`install` is the receiving half: it *replaces* the resident
    entry, because what the bus delivers is the one plan the whole fleet
    runs for that key; counted separately (``replicated``) so
    cache-warmth tests can observe replication without it masquerading
    as local derivation.
    """

    def __init__(
        self,
        capacity: int = 128,
        on_derive: Optional[Callable[[Hashable, FrozenPlan], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._plans: "OrderedDict[Hashable, FrozenPlan]" = OrderedDict()
        self._lock = threading.Lock()
        #: key -> set when the derive in flight for it has ended
        self._deriving: Dict[Hashable, threading.Event] = {}
        self._on_derive = on_derive
        self.hits = 0
        self.misses = 0
        self.derives = 0
        self.replicated = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get(self, key: Hashable) -> Optional[FrozenPlan]:
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def peek(self, key: Hashable) -> Optional[FrozenPlan]:
        """Cached plan without side effects: no counter bump, no LRU move.

        The admission cost model asks "would this request be warm?" on
        every submit; that question must not perturb the hit/miss
        counters the observability layer reports, nor refresh an entry's
        recency just for being asked about.
        """
        with self._lock:
            return self._plans.get(key)

    def put(self, key: Hashable, plan: FrozenPlan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)

    def install(self, key: Hashable, plan: FrozenPlan) -> bool:
        """Install the fleet's plan for ``key``; True if the cache changed.

        Replaces a different resident plan (a local derivation that lost
        the fleet-wide race, see :mod:`repro.service.planbus`) in place,
        keeping its LRU recency; an equal one is left alone.  Does not
        bump ``derives`` (no derivation happened here) nor
        ``hits``/``misses`` (nobody asked), and never fires
        ``on_derive`` (no re-publish, so no replication storm); bumps
        ``replicated`` so what was taken from peers is observable.
        """
        with self._lock:
            if self._plans.get(key) == plan:
                return False
            self._plans[key] = plan
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
            self.replicated += 1
            return True

    def get_or_derive(
        self, key: Hashable, derive: Callable[[], FrozenPlan]
    ) -> FrozenPlan:
        """Cached plan for ``key``, deriving (and caching) on a miss."""
        plan = self.get(key)
        while plan is None:
            with self._lock:
                plan = self._plans.get(key)  # landed since the miss?
                flight = self._deriving.get(key)
                if plan is None and flight is None:
                    flight = self._deriving[key] = threading.Event()
                    break
            if plan is None:
                # take the first's plan — or, if its derive failed on its
                # own input, come back and derive from this caller's
                flight.wait()
        if plan is not None:
            return plan
        try:
            plan = derive()
            with self._lock:
                self.derives += 1
            self.put(key, plan)
        finally:
            with self._lock:
                del self._deriving[key]
            flight.set()
        if self._on_derive is not None:
            self._on_derive(key, plan)
        return plan

    def stats(self) -> Dict[str, float]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "plan_cache_size": len(self._plans),
                "plan_cache_capacity": self.capacity,
                "plan_cache_hits": self.hits,
                "plan_cache_misses": self.misses,
                "plan_cache_hit_rate": (
                    round(self.hits / lookups, 4) if lookups else 0.0
                ),
                "plan_derives": self.derives,
                "plan_replicated": self.replicated,
            }

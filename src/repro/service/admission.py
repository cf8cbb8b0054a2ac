"""Cost-aware admission control and the service metrics registry.

PR 4's scheduler admitted work by queue depth alone: a 512-cubed
compress request consumed exactly one slot of ``max_queue``, the same as
a 16-cubed one, so a handful of large requests could legally occupy a
"short" queue that then takes minutes to drain — and every small
interactive request admitted behind them inherited that latency.  This
module makes admission *cost-aware*:

* :class:`CostModel` predicts a request's cost in **work units** before
  it is queued, from metadata only (element count x a per-codec
  calibration class, with a derivation surcharge when the plan cache
  cannot possibly be warm).  One work unit is roughly the cost of
  *executing* one megaelement of warm interpolation-codec work; the
  absolute scale cancels out of admission decisions, which only compare
  predicted units against unit budgets and against the observed drain
  rate.
* :func:`decide` is the admission policy itself — a **pure function** of
  (cost, priority, :class:`AdmissionSnapshot`, :class:`AdmissionLimits`).
  Purity is load-bearing: the property tests replay snapshots and the
  decision must be byte-for-byte reproducible, and the scheduler can log
  any decision knowing the snapshot fully explains it.
* :class:`AdmissionController` owns the mutable half: queued work units
  per priority class, per-client token buckets (quotas), and the drain
  EWMA that turns "how much work is queued" into "how long until it is
  your turn" (the ``retry_after`` hint).
* :class:`ServiceMetrics` is the observability registry: admit / reject
  / retry counters by class, per-codec throughput EWMAs, slot fill,
  queue-wait EWMAs — updated on every job transition (admitted,
  started, finished) and snapshotted into the versioned STATS frame.

Priority semantics: ``interactive`` requests may use the whole work-unit
budget and are always dequeued ahead of ``batch`` requests; ``batch``
requests may only occupy ``batch_share`` of the budget, so a flood of
bulk traffic cannot starve interactive latency.  A job is never rejected
for *size* alone — when its class has nothing queued it is admitted even
if its predicted cost exceeds the budget (capacity bounds queueing, not
job size; an oversized singleton still makes progress).

Per-client quotas: a request carrying a ``client_id`` draws its
predicted units from that client's token bucket (``client_rate`` units/s
refill up to ``client_burst``).  A full bucket admits any single
request, whatever its size, so quotas — like capacity — bound *rates*,
never feasibility.  Anonymous requests (no client id) share no bucket.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple, Union

import numpy as np

from repro.compressors.base import codec_derives_plan
from repro.core.header import parse_header
from repro.core.plan_cache import PlanLRU, field_signature, plan_cache_key
from repro.errors import ReproError
from repro.service.protocol import (
    PRIORITIES,
    CompressRequest,
    DecompressRequest,
    ReadSlabRequest,
    Request,
)

#: version of the stats snapshot layout (the ``stats_version`` key every
#: snapshot carries); bump when keys are renamed or change meaning
STATS_VERSION = 2

#: calibration table: work units per megaelement of *execution*, by
#: codec.  Scaled so the interpolation engine (qoz/sz3) is the 1.0
#: reference class; the exact numbers only need to be ordinally right —
#: they are refined at runtime by the drain-rate EWMA, which converts
#: units to seconds from observed completions.
CODEC_WORK_CLASS: Dict[str, float] = {
    "zfp": 0.8,
    "qoz": 1.0,
    "sz3": 1.0,
    "sz2": 1.4,
    "mgard": 2.0,
}
DEFAULT_WORK_CLASS = 1.0

#: cold-plan surcharge: derivation (sampling + the memoized Eq. 5 trial
#: grid) costs roughly this many times the execution pass over the same
#: elements, so a cold request is (1 + surcharge) x the warm cost
DERIVE_SURCHARGE = 3.0

#: decode work per megaelement relative to the 1.0 compress class
DECODE_WORK_CLASS = 0.5

#: floor so even empty/tiny requests carry nonzero queue weight
MIN_UNITS = 1.0 / 1024.0

#: fallback estimate (in megaelements) for a path-based hyperslab read
#: whose extent cannot be computed from the request alone
DEFAULT_READ_MELEM = 1.0

#: units/s assumed for retry hints before any job has completed
DEFAULT_DRAIN_RATE = 8.0


class Ewma:
    """Exponentially weighted moving average (None until first sample)."""

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float = 0.2) -> None:
        self.alpha = float(alpha)
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = float(sample)
        else:
            self.value += self.alpha * (float(sample) - self.value)
        return self.value

    def get(self, default: float = 0.0) -> float:
        return default if self.value is None else self.value


# --------------------------------------------------------------------------
# cost prediction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkEstimate:
    """Predicted cost of one request, fixed at admission time."""

    units: float
    elements: int
    nbytes: int
    codec: str
    kind: str  # "compress" | "decompress" | "read" | "other"
    warm: bool


def request_plan_key(req: CompressRequest) -> Hashable:
    """The plan-cache slot of one compress request (cost model's warmth
    lookup and the scheduler's ``get_or_derive`` must agree on it)."""
    spec = req.normalized_bound
    return plan_cache_key(
        req.codec,
        req.codec_kwargs,
        spec.mode,
        spec.value,
        field_signature(req.data, req.family),
    )


class CostModel:
    """Predict request cost in work units from metadata only.

    Prediction must be cheap enough to run synchronously in the event
    loop at admission time, so it never touches payload *content*: the
    compress estimate is ``elements x codec class``, plus the derivation
    surcharge unless the plan cache is *provably* warm.  Warmth is only
    checked for ``family``-tagged requests — their cache key
    (:func:`repro.core.plan_cache.field_signature`) is O(1), while a
    content-keyed request would need a full blake2b pass just to ask.
    Content-keyed requests are therefore assumed cold; over-predicting
    cost is the safe direction for admission.
    """

    def __init__(self, calibration: Optional[Dict[str, float]] = None) -> None:
        self.calibration = dict(CODEC_WORK_CLASS)
        if calibration:
            self.calibration.update(calibration)

    # ------------------------------------------------------------- internals
    def _work_class(self, codec: str) -> float:
        return self.calibration.get(codec, DEFAULT_WORK_CLASS)

    @staticmethod
    def _units(melem: float, work_class: float) -> float:
        return max(MIN_UNITS, melem * work_class)

    def _compress_estimate(
        self, req: CompressRequest, plans: Optional[PlanLRU]
    ) -> WorkEstimate:
        data = np.asanyarray(req.data)
        elements = int(data.size)
        melem = elements / 1e6
        work_class = self._work_class(req.codec)
        derives = codec_derives_plan(req.codec)
        warm = (
            derives
            and not req.per_chunk_tuning
            and bool(req.family)
            and plans is not None
            and plans.peek(request_plan_key(req)) is not None
        )
        cold_derive = derives and not warm
        units = self._units(
            melem, work_class * (1.0 + (DERIVE_SURCHARGE if cold_derive else 0.0))
        )
        return WorkEstimate(
            units=units,
            elements=elements,
            nbytes=int(data.nbytes),
            codec=req.codec,
            kind="compress",
            warm=warm,
        )

    def _decompress_estimate(self, req: DecompressRequest) -> WorkEstimate:
        blob = req.blob
        elements, nbytes = _declared_field(blob)
        if elements is None:
            # unparseable header: fall back to the payload size (the job
            # will fail cleanly in the scheduler; the estimate only has
            # to be finite and monotone in the request size)
            nbytes = len(blob)
            elements = max(1, len(blob) // 4)
        units = self._units(elements / 1e6, DECODE_WORK_CLASS)
        return WorkEstimate(
            units=units,
            elements=elements,
            nbytes=nbytes,
            codec="",
            kind="decompress",
            warm=False,
        )

    def _read_estimate(self, req: ReadSlabRequest) -> WorkEstimate:
        shape: Optional[Tuple[int, ...]] = None
        itemsize = 8
        if isinstance(req.source, (bytes, bytearray, memoryview)):
            shape = _declared_shape(bytes(req.source))
        elements = _slab_elements(req.slab, shape)
        if elements is None:
            elements = int(DEFAULT_READ_MELEM * 1e6)
        units = self._units(elements / 1e6, DECODE_WORK_CLASS)
        return WorkEstimate(
            units=units,
            elements=elements,
            nbytes=elements * itemsize,
            codec="",
            kind="read",
            warm=False,
        )

    # ------------------------------------------------------------------- api
    def predict(
        self, request: Request, plans: Optional[PlanLRU] = None
    ) -> WorkEstimate:
        """Predicted :class:`WorkEstimate` for one request.

        Never raises on malformed payloads — a bad request still gets a
        finite estimate and fails with its real error in the scheduler.
        The one thing read beyond sizes is a family-tagged compress
        request's bound (it keys the warmth lookup); a malformed one
        raises its :class:`~repro.errors.CompressionError` here, at the
        door.
        """
        if isinstance(request, CompressRequest):
            return self._compress_estimate(request, plans)
        if isinstance(request, DecompressRequest):
            return self._decompress_estimate(request)
        if isinstance(request, ReadSlabRequest):
            return self._read_estimate(request)
        return WorkEstimate(
            units=MIN_UNITS, elements=0, nbytes=0, codec="", kind="other",
            warm=False,
        )


def _declared_field(blob: bytes) -> Tuple[Optional[int], int]:
    """(elements, nbytes) a stream header declares, or (None, 0)."""
    try:
        header, _ = parse_header(blob[:64])
    except ReproError:
        # malformed/truncated header: the request still gets a finite
        # estimate here and fails with its real error in the scheduler
        return None, 0
    elements = 1
    for n in header.shape:
        elements *= int(n)
    return elements, elements * header.dtype.itemsize


def _declared_shape(blob: bytes) -> Optional[Tuple[int, ...]]:
    try:
        header, _ = parse_header(blob[:64])
    except ReproError:
        return None
    return tuple(int(n) for n in header.shape)


def _slab_elements(
    slab: Tuple[slice, ...], shape: Optional[Tuple[int, ...]]
) -> Optional[int]:
    """Element count a hyperslab request will materialize, if computable.

    Dimensions with open ends fall back to the container shape when one
    is known; otherwise the extent is unknowable at admission time and
    the caller uses :data:`DEFAULT_READ_MELEM`.
    """
    total = 1
    ndim = max(len(slab), len(shape) if shape else 0)
    for i in range(ndim):
        dim = slab[i] if i < len(slab) else slice(None)
        start, stop = dim.start, dim.stop
        if start is not None and stop is not None and 0 <= start <= stop:
            total *= stop - start
        elif shape is not None and i < len(shape):
            total *= shape[i]
        else:
            return None
    return total


# --------------------------------------------------------------------------
# the admission policy (pure)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissionLimits:
    """Static budgets of one service instance."""

    max_queue_jobs: int = 64
    max_work_units: float = 64.0
    batch_share: float = 0.5
    min_retry_after: float = 0.05
    max_retry_after: float = 5.0


@dataclass(frozen=True)
class AdmissionSnapshot:
    """Everything :func:`decide` may look at, frozen at one instant."""

    queued_jobs: int
    interactive_units: float
    batch_units: float
    drain_rate: float = DEFAULT_DRAIN_RATE
    client_tokens: float = math.inf
    client_rate: float = math.inf
    client_burst: float = math.inf

    @property
    def total_units(self) -> float:
        return self.interactive_units + self.batch_units


@dataclass(frozen=True)
class AdmitDecision:
    admitted: bool
    retry_after: float
    reason: str  # "ok" | "queue-full" | "client-quota" | "class-capacity" | "capacity"


def _retry_hint(
    excess_units: float, drain_rate: float, limits: AdmissionLimits
) -> float:
    """Seconds until ~``excess_units`` of queued work should have drained."""
    rate = drain_rate if drain_rate > 1e-9 else DEFAULT_DRAIN_RATE
    return min(
        limits.max_retry_after,
        max(limits.min_retry_after, excess_units / rate),
    )


def decide(
    units: float,
    priority: str,
    snapshot: AdmissionSnapshot,
    limits: AdmissionLimits,
) -> AdmitDecision:
    """The admission policy: PURE — same inputs, same decision, always.

    Checks, in order: job-count backstop, per-client quota, batch-class
    budget, total work budget.  The empty-queue overrides ("a job is
    never rejected for size alone") are part of the policy, not the
    controller: with nothing queued in the relevant scope, any cost is
    admitted.
    """
    if priority not in PRIORITIES:
        raise ValueError(f"unknown priority class {priority!r}")
    if snapshot.queued_jobs >= limits.max_queue_jobs:
        avg = snapshot.total_units / max(1, snapshot.queued_jobs)
        return AdmitDecision(
            False, _retry_hint(avg, snapshot.drain_rate, limits), "queue-full"
        )
    # a *full* bucket admits any single request (quotas bound rates, not
    # feasibility); otherwise the bucket must cover the predicted units
    if (
        snapshot.client_tokens < units
        and snapshot.client_tokens < snapshot.client_burst
    ):
        need = min(units, snapshot.client_burst) - snapshot.client_tokens
        rate = snapshot.client_rate if snapshot.client_rate > 1e-9 else 1.0
        return AdmitDecision(
            False,
            min(limits.max_retry_after, max(limits.min_retry_after, need / rate)),
            "client-quota",
        )
    if priority == "batch" and snapshot.batch_units > 0.0:
        budget = limits.batch_share * limits.max_work_units
        if snapshot.batch_units + units > budget:
            excess = snapshot.batch_units + units - budget
            return AdmitDecision(
                False,
                _retry_hint(excess, snapshot.drain_rate, limits),
                "class-capacity",
            )
    if snapshot.total_units > 0.0:
        if snapshot.total_units + units > limits.max_work_units:
            excess = snapshot.total_units + units - limits.max_work_units
            return AdmitDecision(
                False,
                _retry_hint(excess, snapshot.drain_rate, limits),
                "capacity",
            )
    return AdmitDecision(True, 0.0, "ok")


# --------------------------------------------------------------------------
# the mutable half
# --------------------------------------------------------------------------

class TokenBucket:
    """Lazily refilled token bucket, clocked by the caller."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)  # start full: first contact never throttles
        self.stamp = float(now)

    def refill(self, now: float) -> float:
        if now > self.stamp:
            self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = max(self.stamp, now)
        return self.tokens

    def consume(self, units: float, now: float) -> None:
        self.refill(now)
        # may go negative (a full bucket admits an oversized request);
        # the debt is bounded at one burst so it cannot grow unpaybale
        self.tokens = max(-self.burst, self.tokens - units)


class AdmissionController:
    """Mutable admission state: queued units, buckets, drain EWMA.

    All methods are called from the service's event-loop thread only
    (admission is synchronous in ``submit`` and release runs in future
    done-callbacks, which asyncio schedules on the loop), so there is no
    internal locking.
    """

    def __init__(
        self,
        limits: Optional[AdmissionLimits] = None,
        *,
        client_rate: float = 16.0,
        client_burst: float = 48.0,
        max_clients: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.limits = limits or AdmissionLimits()
        self.client_rate = float(client_rate)
        self.client_burst = float(client_burst)
        self.max_clients = int(max_clients)
        self._clock = clock
        self._units: Dict[str, float] = {cls: 0.0 for cls in PRIORITIES}
        self._jobs = 0
        self._drain = Ewma(alpha=0.2)
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    # ------------------------------------------------------------- snapshots
    def _bucket(self, client_id: str, now: float) -> TokenBucket:
        bucket = self._buckets.pop(client_id, None)
        if bucket is None:
            bucket = TokenBucket(self.client_rate, self.client_burst, now)
        self._buckets[client_id] = bucket  # (re-)insert at MRU end
        while len(self._buckets) > self.max_clients:
            self._buckets.popitem(last=False)
        return bucket

    @property
    def drain_rate(self) -> float:
        return self._drain.get(DEFAULT_DRAIN_RATE)

    def snapshot(
        self, client_id: Optional[str] = None, now: Optional[float] = None
    ) -> AdmissionSnapshot:
        now = self._clock() if now is None else now
        tokens = rate = burst = math.inf
        if client_id:
            bucket = self._bucket(client_id, now)
            tokens = bucket.refill(now)
            rate, burst = bucket.rate, bucket.burst
        return AdmissionSnapshot(
            queued_jobs=self._jobs,
            interactive_units=self._units["interactive"],
            batch_units=self._units["batch"],
            drain_rate=self.drain_rate,
            client_tokens=tokens,
            client_rate=rate,
            client_burst=burst,
        )

    # ------------------------------------------------------------ transitions
    def try_admit(
        self,
        units: float,
        priority: str,
        client_id: Optional[str] = None,
    ) -> AdmitDecision:
        """Decide, and commit the queue/bucket state on an admit."""
        now = self._clock()
        snap = self.snapshot(client_id, now)
        decision = decide(units, priority, snap, self.limits)
        if decision.admitted:
            self._jobs += 1
            self._units[priority] += units
            if client_id:
                self._buckets[client_id].consume(units, now)
        return decision

    def release(self, units: float, priority: str) -> None:
        """A previously admitted job left the system (done, failed, or
        cancelled) — return its weight to the budget."""
        self._jobs = max(0, self._jobs - 1)
        self._units[priority] = max(0.0, self._units[priority] - units)

    def observe_drain(self, units: float, seconds: float) -> None:
        """Feed one completed job into the drain-rate calibration."""
        if seconds > 1e-9 and units > 0.0:
            self._drain.update(units / seconds)

    # -------------------------------------------------------------- reporting
    def stats(self) -> Dict[str, Union[int, float]]:
        return {
            "queue_units_interactive": round(self._units["interactive"], 6),
            "queue_units_batch": round(self._units["batch"], 6),
            "work_capacity_units": self.limits.max_work_units,
            "batch_share": self.limits.batch_share,
            "drain_rate_units_s": round(self.drain_rate, 4),
            "quota_clients_tracked": len(self._buckets),
        }


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------

class ServiceMetrics:
    """Counters + EWMAs, updated on every job transition.

    The snapshot is a *flat* ``str -> int|float`` mapping because that is
    what the STATS wire frame carries (the protocol's typed kv map); the
    layout is versioned by the ``stats_version`` key
    (:data:`STATS_VERSION`).  Mutation happens on the event-loop thread
    only, like :class:`AdmissionController`.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._t0 = clock()
        self.admitted = {cls: 0 for cls in PRIORITIES}
        self.rejected = {cls: 0 for cls in PRIORITIES}
        self.retried = {cls: 0 for cls in PRIORITIES}
        self.completed = {cls: 0 for cls in PRIORITIES}
        self.failed = {cls: 0 for cls in PRIORITIES}
        self.reject_reasons: Dict[str, int] = {}
        self.kind_done = {"compress": 0, "decompress": 0, "read": 0, "other": 0}
        #: share of the job slots in use as a job starts, itself included
        self.slot_fill = Ewma(alpha=0.2)
        self.queue_wait_ms = {cls: Ewma(alpha=0.2) for cls in PRIORITIES}
        self.codec_jobs: Dict[str, int] = {}
        self.codec_mbps: Dict[str, Ewma] = {}
        self.connections_total = 0
        self.connections_open = 0
        self.deadline_shed = {cls: 0 for cls in PRIORITIES}
        self.deadline_timeouts = {cls: 0 for cls in PRIORITIES}
        self._pool_lock = threading.Lock()
        self.pool_events: Dict[str, int] = {}

    # ------------------------------------------------------------ transitions
    def admit(self, priority: str, attempt: int = 0) -> None:
        self.admitted[priority] += 1
        if attempt > 0:
            self.retried[priority] += 1

    def reject(self, priority: str, reason: str) -> None:
        self.rejected[priority] += 1
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1

    def job_started(
        self, priority: str, wait_s: float, slot_fill: float
    ) -> None:
        self.queue_wait_ms[priority].update(wait_s * 1e3)
        self.slot_fill.update(slot_fill)

    def job_finished(
        self,
        priority: str,
        kind: str,
        ok: bool,
        duration_s: float,
        nbytes: int,
        codec: str = "",
    ) -> None:
        (self.completed if ok else self.failed)[priority] += 1
        self.kind_done[kind] = self.kind_done.get(kind, 0) + 1
        if kind == "compress" and codec:
            self.codec_jobs[codec] = self.codec_jobs.get(codec, 0) + 1
            if ok and duration_s > 1e-9 and nbytes > 0:
                self.codec_mbps.setdefault(codec, Ewma(alpha=0.2)).update(
                    nbytes / 1e6 / duration_s
                )

    def connection_opened(self) -> None:
        self.connections_total += 1
        self.connections_open += 1

    def connection_closed(self) -> None:
        self.connections_open = max(0, self.connections_open - 1)

    def deadline_missed(self, priority: str, stage: str) -> None:
        """A job missed its client deadline while queued or running."""
        table = self.deadline_shed if stage == "queued" else self.deadline_timeouts
        table[priority] += 1

    def pool_event(self, kind: str) -> None:
        """One worker-pool supervisor transition (crash/retry/respawn/
        poisoned/degraded/promoted/probe-failure).  Thread-safe: the
        supervisor reports from executor callback threads, not the loop.
        """
        with self._pool_lock:
            self.pool_events[kind] = self.pool_events.get(kind, 0) + 1

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Union[int, float]]:
        out: Dict[str, Union[int, float]] = {
            "stats_version": STATS_VERSION,
            "uptime_s": round(self._clock() - self._t0, 3),
            # the key predates job slots (it was the fill of a dispatch
            # group); benchmarks/suite reads it under this name
            "batch_fill_ewma": round(self.slot_fill.get(), 4),
            "connections_total": self.connections_total,
            "connections_open": self.connections_open,
            "jobs_compress": self.kind_done["compress"],
            "jobs_decompress": self.kind_done["decompress"],
            "jobs_read": self.kind_done["read"],
        }
        for cls in PRIORITIES:
            out[f"admitted_{cls}"] = self.admitted[cls]
            out[f"rejected_{cls}"] = self.rejected[cls]
            out[f"retried_{cls}"] = self.retried[cls]
            out[f"completed_{cls}"] = self.completed[cls]
            out[f"failed_{cls}"] = self.failed[cls]
            out[f"queue_wait_ms_{cls}"] = round(self.queue_wait_ms[cls].get(), 3)
        for cls in PRIORITIES:
            out[f"deadline_shed_{cls}"] = self.deadline_shed[cls]
            out[f"deadline_timeout_{cls}"] = self.deadline_timeouts[cls]
        for reason, count in sorted(self.reject_reasons.items()):
            out[f"rejects_{reason.replace('-', '_')}"] = count
        with self._pool_lock:
            pool_events = dict(self.pool_events)
        for kind in sorted(pool_events):
            out[f"pool_{kind.replace('-', '_')}"] = pool_events[kind]
        for codec in sorted(self.codec_jobs):
            out[f"jobs_codec_{codec}"] = self.codec_jobs[codec]
        for codec in sorted(self.codec_mbps):
            out[f"throughput_{codec}_mbps"] = round(
                self.codec_mbps[codec].get(), 3
            )
        return out


#: aggregation policy for :func:`aggregate_snapshots`: keys where the
#: fleet value is the max of the shard values (identical-by-construction
#: config plus "oldest shard" uptime) ...
_AGG_MAX = frozenset(
    {"stats_version", "uptime_s", "n_shards", "batch_share"}
)
#: ... keys where it is the mean (EWMAs of per-request quantities —
#: summing a latency EWMA across shards would be nonsense) ...
_AGG_MEAN_PREFIXES = ("queue_wait_ms_",)
_AGG_MEAN = frozenset({"batch_fill_ewma"})
#: ... keys dropped from the aggregate (per-shard identity; the
#: per-shard prefixed rows keep them)
_AGG_DROP = frozenset({"shard_id"})


def aggregate_snapshots(
    snaps: Mapping[int, Mapping[str, Union[int, float]]],
    per_shard: bool = False,
) -> Dict[str, Union[int, float]]:
    """Fold per-shard STATS snapshots into one fleet view.

    Default policy: counters, queue depths, capacities, drain rates, and
    throughput EWMAs **sum** (they read as fleet totals — e.g.
    ``work_capacity_units`` becomes the whole deployment's admission
    budget); per-request EWMAs (queue wait, slot fill) **average** over
    the shards that report them; version/config keys take the **max**
    (identical across shards by construction).  ``plan_cache_hit_rate``
    is recomputed from the summed hit/miss counters rather than averaged,
    so it reconciles exactly with them.  ``shards_reporting`` records how
    many snapshots the aggregate is built from (a dead shard is absent,
    not zero-filled).

    ``per_shard=True`` additionally carries every input row through as
    ``shard{i}_{key}`` — the detail view behind
    ``repro serve-stats --per-shard``.
    """
    out: Dict[str, Union[int, float]] = {"shards_reporting": len(snaps)}
    counts: Dict[str, int] = {}
    for snap in snaps.values():
        for key, value in snap.items():
            if key in _AGG_DROP:
                continue
            counts[key] = counts.get(key, 0) + 1
            if key in _AGG_MAX:
                prev = out.get(key)
                out[key] = value if prev is None else max(prev, value)
            else:
                out[key] = out.get(key, 0) + value
    for key in list(out):
        if key in _AGG_MEAN or key.startswith(_AGG_MEAN_PREFIXES):
            out[key] = round(float(out[key]) / max(1, counts.get(key, 1)), 4)
    hits = out.get("plan_cache_hits", 0)
    misses = out.get("plan_cache_misses", 0)
    lookups = hits + misses
    out["plan_cache_hit_rate"] = (
        round(float(hits) / lookups, 4) if lookups else 0.0
    )
    if per_shard:
        for shard_id in sorted(snaps):
            for key, value in snaps[shard_id].items():
                out[f"shard{shard_id}_{key}"] = value
    return out


def format_stats_line(stats: Dict[str, Union[int, float]]) -> str:
    """One compact ``key=value`` line for the server's periodic log."""
    admit = sum(stats.get(f"admitted_{c}", 0) for c in PRIORITIES)
    reject = sum(stats.get(f"rejected_{c}", 0) for c in PRIORITIES)
    units = stats.get("queue_units_interactive", 0.0) + stats.get(
        "queue_units_batch", 0.0
    )
    hits = stats.get("plan_cache_hits", 0)
    misses = stats.get("plan_cache_misses", 0)
    hit_pct = 100.0 * hits / (hits + misses) if (hits + misses) else 0.0
    parts = [
        "repro service stats:",
        f"v={stats.get('stats_version', STATS_VERSION)}",
    ]
    if "shards_reporting" in stats:
        parts.append(f"shards={stats['shards_reporting']:.0f}")
    elif stats.get("n_shards", 1) > 1:
        parts.append(
            f"shard={stats.get('shard_id', 0):.0f}/{stats['n_shards']:.0f}"
        )
    parts += [
        f"up={stats.get('uptime_s', 0):.0f}s",
        f"conns={stats.get('connections_open', 0)}",
        f"queue={stats.get('queue_depth', 0)}",
        f"units={units:.2f}/{stats.get('work_capacity_units', 0):.0f}",
        f"admit={admit}",
        f"reject={reject}",
        f"plan_hit={hit_pct:.0f}%",
        f"slot_fill={stats.get('batch_fill_ewma', 0.0):.2f}",
        f"drain={stats.get('drain_rate_units_s', 0.0):.1f}u/s",
    ]
    return " ".join(parts)


__all__ = [
    "STATS_VERSION",
    "CODEC_WORK_CLASS",
    "DERIVE_SURCHARGE",
    "DECODE_WORK_CLASS",
    "MIN_UNITS",
    "DEFAULT_DRAIN_RATE",
    "Ewma",
    "WorkEstimate",
    "CostModel",
    "AdmissionLimits",
    "AdmissionSnapshot",
    "AdmitDecision",
    "decide",
    "TokenBucket",
    "AdmissionController",
    "ServiceMetrics",
    "aggregate_snapshots",
    "format_stats_line",
]

"""Admission control and the service metrics registry.

Two rules decide whether a request is admitted (EXPERIMENTS.md §18
audited every rule this module has held and kept these):

* the **job bound** (``max_queue``) on admitted jobs not yet finished,
  queued or running; a ``queue-full`` rejection hints the mean job run
  time as ``retry_after`` (one job ending frees a place);
* the **per-client quota**: a request carrying a ``client_id`` draws
  :func:`request_units` — the megaelements it declares — from that
  client's token bucket.  A full bucket admits any single request, so
  the quota bounds rates, never feasibility.

:func:`decide` is the policy, a **pure function** the property tests
replay; :class:`AdmissionController` owns the job count and the
buckets.  Which admitted job runs first is the scheduler's business.
:class:`ServiceMetrics` records counters and a :class:`Histogram` of
queue wait and of run time per class — counts and sums only, from which
:func:`summarize` derives the means and percentiles.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.header import HEADER_PROBE_BYTES, parse_header
from repro.errors import ReproError
from repro.service.protocol import (
    PRIORITIES,
    CompressRequest,
    DecompressRequest,
    ReadSlabRequest,
    Request,
)

Stats = Dict[str, Union[int, float]]

#: version of the stats snapshot layout (the ``stats_version`` key every
#: snapshot carries); bump when keys are renamed or change meaning
STATS_VERSION = 3

#: floor so even empty/tiny requests draw a nonzero quota
MIN_UNITS = 1.0 / 1024.0

#: megaelements assumed for a hyperslab read whose extent cannot be
#: computed from the request alone (a path-based read with open ends)
DEFAULT_READ_MELEM = 1.0


# --------------------------------------------------------------------------
# request size
# --------------------------------------------------------------------------

def request_units(request: Request) -> float:
    """Megaelements a request declares, floored at :data:`MIN_UNITS`:
    the array of a compress, the header shape of a decompress (a quarter
    of the blob's bytes if it does not parse; the job then fails with
    its real error), the slab extent of a read (open ends from an inline
    container's header, else :data:`DEFAULT_READ_MELEM`)."""
    melem = 0.0
    if isinstance(request, CompressRequest):
        melem = np.asanyarray(request.data).size / 1e6
    elif isinstance(request, DecompressRequest):
        shape = _declared_shape(request.blob)
        elements = math.prod(shape) if shape else len(request.blob) // 4
        melem = elements / 1e6
    elif isinstance(request, ReadSlabRequest):
        source = request.source
        shape = None
        if isinstance(source, (bytes, bytearray, memoryview)):
            shape = _declared_shape(source)
        melem = _slab_melem(request.slab, shape)
    return max(MIN_UNITS, melem)


def _declared_shape(
    blob: Union[bytes, bytearray, memoryview]
) -> Optional[Tuple[int, ...]]:
    try:
        header, _ = parse_header(bytes(blob[:HEADER_PROBE_BYTES]))
    except ReproError:
        return None
    return tuple(int(n) for n in header.shape)


def _slab_melem(
    slab: Tuple[slice, ...], shape: Optional[Tuple[int, ...]]
) -> float:
    total = 1
    for i in range(max(len(slab), len(shape or ()))):
        dim = slab[i] if i < len(slab) else slice(None)
        start, stop = dim.start, dim.stop
        if start is not None and stop is not None and 0 <= start <= stop:
            total *= stop - start
        elif shape is not None and i < len(shape):
            total *= shape[i]
        else:
            return DEFAULT_READ_MELEM
    return total / 1e6


# --------------------------------------------------------------------------
# the admission policy (pure)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissionLimits:
    """Static bounds of one service instance."""

    max_queue_jobs: int = 64
    min_retry_after: float = 0.05
    max_retry_after: float = 5.0


@dataclass(frozen=True)
class AdmissionSnapshot:
    """Everything :func:`decide` may look at, frozen at one instant."""

    queued_jobs: int
    #: mean run time of the jobs finished so far (0 before the first)
    mean_run_s: float = 0.0
    client_tokens: float = math.inf
    client_rate: float = math.inf
    client_burst: float = math.inf


@dataclass(frozen=True)
class AdmitDecision:
    admitted: bool
    retry_after: float
    reason: str  # "ok" | "queue-full" | "client-quota"


def _clamp(seconds: float, limits: AdmissionLimits) -> float:
    return min(limits.max_retry_after, max(limits.min_retry_after, seconds))


def decide(
    units: float, snapshot: AdmissionSnapshot, limits: AdmissionLimits
) -> AdmitDecision:
    """The admission policy: PURE — same inputs, same decision, always.

    The job bound first, then the client's quota: a *full* bucket admits
    any single request, otherwise the bucket must cover the units.
    """
    if snapshot.queued_jobs >= limits.max_queue_jobs:
        return AdmitDecision(False, _clamp(snapshot.mean_run_s, limits), "queue-full")
    tokens, burst = snapshot.client_tokens, snapshot.client_burst
    if tokens < units and tokens < burst:
        rate = snapshot.client_rate if snapshot.client_rate > 1e-9 else 1.0
        need = min(units, burst) - tokens
        return AdmitDecision(False, _clamp(need / rate, limits), "client-quota")
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
    """Mutable admission state: the admitted-job count and the buckets.

    Called from the service's event-loop thread only (admission runs in
    ``submit``, release in future done-callbacks), so nothing is locked.
    ``mean_run_s`` reports the mean job run time a ``queue-full`` hint is.
    """

    def __init__(
        self,
        limits: Optional[AdmissionLimits] = None,
        *,
        client_rate: float = 16.0,
        client_burst: float = 48.0,
        max_clients: int = 4096,
        mean_run_s: Callable[[], float] = lambda: 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.limits = limits or AdmissionLimits()
        self.client_rate = float(client_rate)
        self.client_burst = float(client_burst)
        self.max_clients = int(max_clients)
        self._mean_run_s = mean_run_s
        self._clock = clock
        self._jobs = 0
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    def _bucket(self, client_id: str, now: float) -> TokenBucket:
        bucket = self._buckets.pop(client_id, None)
        if bucket is None:
            bucket = TokenBucket(self.client_rate, self.client_burst, now)
        self._buckets[client_id] = bucket  # (re-)insert at MRU end
        while len(self._buckets) > self.max_clients:
            self._buckets.popitem(last=False)
        return bucket

    def snapshot(
        self, client_id: Optional[str] = None, now: Optional[float] = None
    ) -> AdmissionSnapshot:
        now = self._clock() if now is None else now
        tokens = rate = burst = math.inf
        if client_id:
            bucket = self._bucket(client_id, now)
            tokens = bucket.refill(now)
            rate, burst = bucket.rate, bucket.burst
        return AdmissionSnapshot(self._jobs, self._mean_run_s(), tokens, rate, burst)

    def try_admit(
        self, units: float, client_id: Optional[str] = None
    ) -> AdmitDecision:
        """Decide, and commit the job count and the bucket on an admit."""
        now = self._clock()
        decision = decide(units, self.snapshot(client_id, now), self.limits)
        if decision.admitted:
            self._jobs += 1
            if client_id:
                self._buckets[client_id].consume(units, now)
        return decision

    def release(self) -> None:
        """A previously admitted job left the system (done, failed, or
        cancelled) — its place is free again."""
        self._jobs = max(0, self._jobs - 1)

    def stats(self) -> Stats:
        return {
            "admission_jobs": self._jobs,
            "quota_clients_tracked": len(self._buckets),
        }


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------

#: upper bucket edges (ms) of every :class:`Histogram`: 8 per decade from
#: 10 us to 100 s, 4 significant digits, plus an overflow bucket.  One
#: module constant, so two registries' buckets line up and add key by key
HIST_EDGES_MS: Tuple[float, ...] = tuple(
    float(f"{10.0 ** (k / 8 - 2):.4g}") for k in range(57)
)

#: the histogrammed stages of a job, each kept per priority class:
#: queue wait (admitted -> started) and run time (started -> finished)
HIST_STAGES = ("queue_wait", "run")

PERCENTILES = (50, 90, 99)


class Histogram:
    """Samples counted per :data:`HIST_EDGES_MS` bucket, with their count
    and sum (whole microseconds, so sums add exactly too); on the STATS
    map, sparse ``{stage}_b{i}_{cls}`` keys plus ``{stage}_count_{cls}``
    and ``{stage}_sum_us_{cls}``."""

    __slots__ = ("buckets", "count", "sum_us")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum_us = 0

    def record(self, seconds: float) -> None:
        i = bisect.bisect_left(HIST_EDGES_MS, seconds * 1e3)
        self.buckets[i] = self.buckets.get(i, 0) + 1
        self.count += 1
        self.sum_us += round(seconds * 1e6)

    def emit(self, out: Stats, stage: str, cls: str) -> None:
        out[f"{stage}_count_{cls}"] = self.count
        out[f"{stage}_sum_us_{cls}"] = self.sum_us
        for i, n in self.buckets.items():
            out[f"{stage}_b{i}_{cls}"] = n


def _percentile_ms(
    stats: Mapping[str, Union[int, float]], stage: str, cls: str, q: int
) -> float:
    """Upper edge of the bucket holding the q-th percentile sample (the
    last edge for the overflow bucket; 0 without samples)."""
    rank = (q * int(stats.get(f"{stage}_count_{cls}", 0)) + 99) // 100
    if rank == 0:
        return 0.0
    seen: float = 0
    for i, edge in enumerate(HIST_EDGES_MS):
        seen += stats.get(f"{stage}_b{i}_{cls}", 0)
        if seen >= rank:
            return edge
    return HIST_EDGES_MS[-1]


def summarize(stats: Mapping[str, Union[int, float]]) -> Stats:
    """``stats`` plus the keys derived from its counts and sums.

    Per stage and class, the mean (``queue_wait_ms_<cls>``,
    ``run_ms_<cls>``) and ``{stage}_p50_ms_<cls>`` / p90 / p99; the mean
    slot fill (``batch_fill_ewma``, a name the benchmark suite reads:
    job slots in use as a job starts, itself included, over the slots).
    """
    out = dict(stats)
    for stage in HIST_STAGES:
        for cls in PRIORITIES:
            count = stats.get(f"{stage}_count_{cls}", 0)
            total_us = stats.get(f"{stage}_sum_us_{cls}", 0)
            out[f"{stage}_ms_{cls}"] = (
                round(total_us / 1e3 / count, 3) if count else 0.0
            )
            for q in PERCENTILES:
                out[f"{stage}_p{q}_ms_{cls}"] = _percentile_ms(stats, stage, cls, q)
    slots = stats.get("slot_count_sum", 0)
    busy = stats.get("slot_busy_sum", 0)
    out["batch_fill_ewma"] = round(busy / slots, 4) if slots else 0.0
    return out


#: counters every snapshot carries, zero or not
_ALWAYS = tuple(
    f"{name}_{cls}"
    for name in (
        "admitted", "rejected", "retried", "completed", "failed",
        "deadline_shed", "deadline_timeout",
    )
    for cls in PRIORITIES
) + ("jobs_compress", "jobs_decompress", "jobs_read",
     "connections_total", "connections_open")


class ServiceMetrics:
    """Counters and histograms, updated on every job transition.

    The snapshot is a *flat* ``str -> int|float`` mapping because that is
    what the STATS wire frame carries (the protocol's typed kv map); the
    layout is versioned by the ``stats_version`` key
    (:data:`STATS_VERSION`).  Mutation happens on the event-loop thread
    only, like :class:`AdmissionController`, except :meth:`pool_event`.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._t0 = clock()
        self._counts: Dict[str, int] = dict.fromkeys(_ALWAYS, 0)
        self._hists = {
            (stage, cls): Histogram()
            for stage in HIST_STAGES for cls in PRIORITIES
        }
        self._pool_lock = threading.Lock()
        self._pool_events: Dict[str, int] = {}

    def _bump(self, key: str, n: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + n

    # ------------------------------------------------------------ transitions
    def admit(self, priority: str, attempt: int = 0) -> None:
        self._bump(f"admitted_{priority}")
        if attempt > 0:
            self._bump(f"retried_{priority}")

    def reject(self, priority: str, reason: str) -> None:
        self._bump(f"rejected_{priority}")
        self._bump(f"rejects_{reason.replace('-', '_')}")

    def job_started(
        self, priority: str, wait_s: float, busy: int, slots: int
    ) -> None:
        """A job took a slot after ``wait_s`` queued; ``busy`` of the
        ``slots`` job slots are now in use, itself included."""
        self._hists["queue_wait", priority].record(wait_s)
        self._bump("slot_busy_sum", busy)
        self._bump("slot_count_sum", slots)

    def job_finished(
        self,
        priority: str,
        kind: str,
        ok: bool,
        run_s: Optional[float],
        codec: str = "",
    ) -> None:
        """An admitted job left; ``run_s`` is None if it never started."""
        self._bump(f"{'completed' if ok else 'failed'}_{priority}")
        self._bump(f"jobs_{kind}")
        if run_s is not None:
            self._hists["run", priority].record(run_s)
        if kind == "compress" and codec:
            self._bump(f"jobs_codec_{codec}")

    def mean_run_s(self) -> float:
        """Mean run time of the jobs finished so far, both classes."""
        runs = [self._hists["run", cls] for cls in PRIORITIES]
        count = sum(h.count for h in runs)
        return sum(h.sum_us for h in runs) / 1e6 / count if count else 0.0

    def connection_opened(self) -> None:
        self._bump("connections_total")
        self._bump("connections_open")

    def connection_closed(self) -> None:
        self._counts["connections_open"] = max(
            0, self._counts["connections_open"] - 1
        )

    def deadline_missed(self, priority: str, stage: str) -> None:
        """A job missed its client deadline while queued or running."""
        table = "deadline_shed" if stage == "queued" else "deadline_timeout"
        self._bump(f"{table}_{priority}")

    def pool_event(self, kind: str) -> None:
        """One worker-pool event (crash/retry/respawn/poisoned).
        Thread-safe: the pool reports from its manager thread."""
        with self._pool_lock:
            self._pool_events[kind] = self._pool_events.get(kind, 0) + 1

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Stats:
        out: Stats = {
            "stats_version": STATS_VERSION,
            "uptime_s": round(self._clock() - self._t0, 3),
        }
        out.update(self._counts)
        for (stage, cls), hist in self._hists.items():
            hist.emit(out, stage, cls)
        with self._pool_lock:
            pool_events = dict(self._pool_events)
        for kind, n in pool_events.items():
            out[f"pool_{kind.replace('-', '_')}"] = n
        return summarize(out)


def format_stats_line(stats: Mapping[str, Union[int, float]]) -> str:
    """One compact ``key=value`` line for the server's periodic log."""
    admit = sum(stats.get(f"admitted_{c}", 0) for c in PRIORITIES)
    reject = sum(stats.get(f"rejected_{c}", 0) for c in PRIORITIES)
    hit_pct = 100.0 * stats.get("plan_cache_hit_rate", 0.0)
    parts = [
        "repro service stats:",
        f"v={stats.get('stats_version', STATS_VERSION)}",
        f"up={stats.get('uptime_s', 0):.0f}s",
        f"conns={stats.get('connections_open', 0)}",
        f"queue={stats.get('queue_depth', 0)}",
        f"admit={admit}",
        f"reject={reject}",
        f"plan_hit={hit_pct:.0f}%",
        f"slot_fill={stats.get('batch_fill_ewma', 0.0):.2f}",
    ]
    for stage in HIST_STAGES:
        for cls in PRIORITIES:
            p50 = stats.get(f"{stage}_p50_ms_{cls}", 0.0)
            p99 = stats.get(f"{stage}_p99_ms_{cls}", 0.0)
            parts.append(f"{stage}_{cls}={p50:.3g}/{p99:.3g}ms")
    return " ".join(parts)


__all__ = [
    "STATS_VERSION", "MIN_UNITS", "HIST_EDGES_MS", "request_units",
    "AdmissionLimits", "AdmissionSnapshot", "AdmitDecision", "decide",
    "TokenBucket", "AdmissionController", "Histogram", "ServiceMetrics",
    "summarize", "format_stats_line",
]

"""Bounded async job scheduler with plan-cached compression.

The service's execution model, front to back:

* Requests enter through :meth:`CompressionService.handle` and pass
  **admission** (:mod:`repro.service.admission`): the job-count bound
  ``max_queue`` and, for a request with a ``client_id``, that client's
  token bucket, drawn by the megaelements the request declares.  A
  rejected request fails immediately with
  :class:`ServiceOverloadedError` (carrying a ``retry_after`` hint and
  the rejecting rule's name) instead of buffering unboundedly — load
  sheds at the door, which keeps both memory *and queueing latency*
  proportional to the bound rather than to the burst.
* Admitted jobs join one of two priority deques.  There is one dispatch
  path: every job is its own task, started when one of **S slots** is
  free — S is ``processes + 1`` when the pool fans out and 1 otherwise,
  so a ``processes <= 1`` service runs one job at a time, in-process.
  The slot beyond the workers keeps them busy while another job is in
  a hand-over (EXPERIMENTS.md §10).  A free slot takes the oldest
  ``interactive`` job first; the ``batch`` lane may hold at most
  ``max(1, S - 1)`` slots, so however much bulk work is queued an
  interactive arrival finds a slot free of it — or, without a pool,
  waits behind one batch job.
* Every job transition (admitted / rejected / started / finished) feeds
  the :class:`~repro.service.admission.ServiceMetrics` registry, and
  :meth:`CompressionService.stats` snapshots it — the versioned STATS
  frame the server, clients, and ``repro serve-stats`` render.
* Per-field work is the library's :class:`~repro.chunked.api.CompressJob`
  — admit, derive, execute — borrowed whole.  Derivation (sampling,
  Algorithm 1 selection, the Eq. 5 (alpha, beta) search) is the
  amortizable step, so the service wraps it in a
  :class:`~repro.core.plan_cache.PlanLRU` keyed by (codec config, bound
  request, field signature).  Warm traffic on a field family skips tuning
  entirely and goes straight to execution; the quantizer still enforces
  the error bound point-wise on every request, so a cache hit can never
  loosen the guarantee.  One derive is in flight per key: concurrent
  first requests of one ``family=`` run one plan.
* **Every job is one call** on a thread, off the event loop, and the
  call is the library's own routine: a compress is the plan lookup plus
  :meth:`CompressJob.compress_to`, a chunked decompress or a read is
  :meth:`ChunkedFile.read`, a plain stream is ``decompress_any``.  With
  ``processes > 1`` the same call hands the work to the long-lived
  process pool (:class:`~repro.parallel.executor.ChunkWorkPool`) and
  returns its future: a compress goes whole to one worker
  (:meth:`CompressJob.submit_whole` — whatever its chunk count, the
  worker derives on a cache miss, executes and returns the finished
  container), a plain stream through ``submit_decompress`` and a read
  through :meth:`ChunkedFile.submit_read`.  A job past its deadline is
  answered at once but keeps its slot until its call ends, so every
  slot has its own thread.

Served bytes and arrays come out of the library's own routines, so
byte/bit identity between served and in-process results is by
construction, and pinned in ``tests/service``.
"""

from __future__ import annotations

import asyncio
import io
import math
import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.chunked.api import ChunkedFile, CompressJob
from repro.chunked.tiling import Slab
from repro.compressors.base import decompress_any
from repro.core.header import HEADER_PROBE_BYTES, parse_header
from repro.core.plan_cache import (
    FrozenPlan,
    PlanLRU,
    field_signature,
    plan_cache_key,
)
from repro.errors import (
    DeadlineExceededError,
    DecompressionError,
    ServiceOverloadedError,
)
from repro.parallel.executor import ChunkWorkPool
from repro.service.admission import (
    AdmissionController,
    AdmissionLimits,
    ServiceMetrics,
    request_units,
)
from repro.service.protocol import (
    MAX_FRAME,
    PRIORITIES,
    CompressRequest,
    DecompressRequest,
    PingRequest,
    ReadSlabRequest,
    Request,
    StatsRequest,
    validate_deadline_ms,
    validate_priority,
)


#: derived plans kept across requests (LRU)
PLAN_CACHE_SIZE = 128

#: the least ``retry_after`` hint a rejected request carries (seconds)
RETRY_AFTER = 0.05


@dataclass
class ServiceConfig:
    """Knobs of one service instance.

    ``processes <= 1`` keeps execution in-process (a thread, no forks,
    one job at a time) — the right default for tests and small
    deployments; a larger value is that many pool workers and one job
    slot more, with all codec work on the workers.

    ``serve_root`` gates path-based hyperslab reads: ``None`` (the
    default) refuses them outright, and a directory restricts them to
    containers under it — a remote client must never get an arbitrary
    file-read/probe primitive over the server's filesystem.

    Admission knobs (see :mod:`repro.service.admission`): ``max_queue``
    bounds the jobs admitted and not yet finished, and ``client_rate`` /
    ``client_burst`` are the per-client token-bucket quota (declared
    megaelements per second, megaelements) applied to requests that
    carry a ``client_id``.  ``stats_interval`` > 0 makes the server log
    one snapshot line that often (seconds).
    """

    processes: int = 1
    max_queue: int = 64
    serve_root: Optional[str] = None
    client_rate: float = 16.0
    client_burst: float = 48.0
    stats_interval: float = 0.0


#: what a compress's call hands back: the plan it ran (None for a codec
#: without one, or per-chunk tuning) and the finished container
_Ran = Tuple[Optional[FrozenPlan], bytes]

#: the STATS ``jobs_<kind>`` counter each request type feeds
_KINDS = {
    CompressRequest: "compress",
    DecompressRequest: "decompress",
    ReadSlabRequest: "read",
}


@dataclass
class _Job:
    request: Request
    future: "asyncio.Future"
    priority: str
    enqueued: float
    started: float = 0.0
    #: absolute ``time.monotonic()`` deadline (None = no client deadline)
    deadline: Optional[float] = None
    deadline_ms: float = 0.0


class CompressionService:
    """Async compression service: bounded queue, job slots, plan cache."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._pending: Dict[str, "Deque[_Job]"] = {
            cls: deque() for cls in PRIORITIES
        }
        self.plans = PlanLRU(PLAN_CACHE_SIZE)
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(
            AdmissionLimits(
                max_queue_jobs=max(1, self.config.max_queue),
                min_retry_after=RETRY_AFTER,
            ),
            client_rate=self.config.client_rate,
            client_burst=self.config.client_burst,
            mean_run_s=self.metrics.mean_run_s,
        )
        # the pool reports its worker deaths straight into the metrics
        self._pool = ChunkWorkPool(
            self.config.processes, on_event=self.metrics.pool_event
        )
        #: job slots: one per worker and one more when the pool fans out,
        #: else one
        self._slots = self.config.processes + 1 if self._pool.parallel else 1
        # a job makes one thread call and keeps its slot until the call
        # ends, past its deadline too (``_call``): one thread per slot
        self._threads = ThreadPoolExecutor(
            max_workers=self._slots, thread_name_prefix="repro-svc"
        )
        self._running: Dict["asyncio.Task[None]", _Job] = {}
        self._started = False

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        self._started = True
        self._fill_slots()

    async def close(self) -> None:
        self._started = False
        # a cancelled job's future is resolved where its slot is freed
        # (``_slot_freed``: a task cancelled before its first step never
        # runs a line of ``_run_job``); the still-queued ones are drained
        # here — no caller may hang on a future nobody will resolve
        running = list(self._running)
        for task in running:
            task.cancel()
        await asyncio.gather(*running, return_exceptions=True)
        for pending in self._pending.values():
            while pending:
                self._fail(pending.popleft(), self._shutting_down())
        self._pool.shutdown()
        # a cancelled job's call may still run: its reader closes with it
        self._threads.shutdown(wait=True)

    @staticmethod
    def _shutting_down() -> ServiceOverloadedError:
        return ServiceOverloadedError(RETRY_AFTER, "shutting-down")

    @staticmethod
    def _fail(job: _Job, exc: BaseException) -> None:
        if not job.future.done():
            job.future.set_exception(exc)

    # ------------------------------------------------------------ admission
    def submit(self, request: Request) -> "asyncio.Future":
        """Admit and enqueue a job, or raise :class:`ServiceOverloadedError`.

        Admission is synchronous and non-blocking by design: the caller
        (one connection handler among many) must learn *immediately*
        whether the job was accepted, so it can push the RETRY response
        instead of holding the connection while the queue drains.  The
        job-count bound and the client's token bucket decide (see
        :mod:`repro.service.admission`); a malformed priority or deadline
        is refused before either counts the request.
        """
        loop = asyncio.get_running_loop()
        priority = validate_priority(
            getattr(request, "priority", "interactive")
        )
        deadline_ms = getattr(request, "deadline_ms", None)
        if deadline_ms is not None:
            deadline_ms = validate_deadline_ms(deadline_ms)
        attempt = int(getattr(request, "attempt", 0))
        client_id = getattr(request, "client_id", None)
        decision = self.admission.try_admit(request_units(request), client_id)
        if not decision.admitted:
            self.metrics.reject(priority, decision.reason)
            raise ServiceOverloadedError(decision.retry_after, decision.reason)
        self.metrics.admit(priority, attempt)
        future = loop.create_future()
        now = time.monotonic()
        job = _Job(
            request=request,
            future=future,
            priority=priority,
            enqueued=now,
            deadline=(
                now + deadline_ms / 1e3 if deadline_ms is not None else None
            ),
            deadline_ms=deadline_ms or 0.0,
        )
        future.add_done_callback(lambda fut, job=job: self._on_job_done(job, fut))
        self._pending[priority].append(job)
        self._fill_slots()
        return future

    def _on_job_done(self, job: _Job, fut: "asyncio.Future") -> None:
        """Single exit point for admitted jobs (done/failed/cancelled)."""
        self.admission.release()
        ok = (not fut.cancelled()) and fut.exception() is None
        self.metrics.job_finished(
            job.priority,
            _KINDS.get(type(job.request), "other"),
            ok,
            time.monotonic() - job.started if job.started else None,
            getattr(job.request, "codec", ""),
        )

    async def handle(self, request: Request) -> object:
        """Process one request end-to-end (the in-process entry point)."""
        if isinstance(request, PingRequest):
            return None
        if isinstance(request, StatsRequest):
            return self.stats()
        return await self.submit(request)

    def stats(self) -> Dict[str, Union[int, float]]:
        """Structured snapshot: scheduler + admission + metrics + plans.

        This is the versioned STATS frame payload (``stats_version``
        names the layout).  Flat int/float values only — the wire format
        is the protocol's typed kv map.
        """
        out: Dict[str, Union[int, float]] = {
            "queue_depth": sum(len(q) for q in self._pending.values()),
            "queue_depth_interactive": len(self._pending["interactive"]),
            "queue_depth_batch": len(self._pending["batch"]),
            "max_queue": self.config.max_queue,
            "processes": self.config.processes,
        }
        out.update(self.metrics.snapshot())
        out.update(self.admission.stats())
        out.update(self.plans.stats())
        return out

    # ------------------------------------------------------------ scheduler
    def _next_job(self) -> Optional[_Job]:
        """The job a free slot takes: interactive strictly first; a batch
        job only while its lane holds fewer than ``max(1, S - 1)`` slots,
        which bounds what an interactive arrival can find in its way to
        one batch job's service time."""
        if self._pending["interactive"]:
            return self._pending["interactive"].popleft()
        lane = sum(job.priority == "batch" for job in self._running.values())
        if self._pending["batch"] and lane < max(1, self._slots - 1):
            return self._pending["batch"].popleft()
        return None

    def _fill_slots(self) -> None:
        """Start waiting jobs, each as its own task, while a slot is free.
        Called when a job arrives and when one leaves."""
        while self._started and len(self._running) < self._slots:
            job = self._next_job()
            if job is None:
                return
            now = time.monotonic()
            if job.deadline is not None and now >= job.deadline:
                # queued past its deadline: shed at dispatch — the work
                # has not started, so failing fast costs nothing and
                # frees its admission place for live requests
                self.metrics.deadline_missed(job.priority, "queued")
                self._fail(job, DeadlineExceededError(job.deadline_ms, "queued"))
                continue
            job.started = now
            self.metrics.job_started(
                job.priority, now - job.enqueued,
                len(self._running) + 1, self._slots,
            )
            task = asyncio.create_task(self._run_job(job), name="repro-job")
            self._running[task] = job
            task.add_done_callback(self._slot_freed)

    def _slot_freed(self, task: "asyncio.Task[None]") -> None:
        # a no-op for a job that resolved its own future
        self._fail(self._running.pop(task), self._shutting_down())
        self._fill_slots()

    async def _run_job(self, job: _Job) -> None:
        """Run one job, routing the outcome into its future (a job past
        its deadline is answered in :meth:`_call`, and its outcome then
        goes nowhere)."""
        req = job.request
        if isinstance(req, CompressRequest):
            work = self._compress(job, req)
        elif isinstance(req, DecompressRequest):
            work = self._decompress(job, req)
        elif isinstance(req, ReadSlabRequest):
            work = self._read_slab(job, req)
        else:
            self._fail(job, TypeError(f"unschedulable request {type(req).__name__}"))
            return
        try:
            result = await work
        except Exception as exc:  # the job's failure, never the service's
            if not job.future.done():
                job.future.set_exception(exc)
        else:
            if not job.future.done():
                job.future.set_result(result)

    async def _call(
        self, job: _Job, fn: Callable[..., Any], *args: object
    ) -> Any:
        """The job's one thread call, ``fn(*args)``, and the pool future
        it hands back, if it hands one back, each awaited until the job's
        deadline.

        Past the deadline the job is answered at once.  A pool future is
        then cancelled, which drops its result and frees its slab; a
        thread call cannot be, so the job keeps its slot until the call
        ends, and cancels what the call hands back then.  Slots and
        threads stay equal that way: a later job never waits for a
        thread, and an abandoned batch call still counts in its lane.
        """
        call = self._threads.submit(fn, *args)
        started = asyncio.wrap_future(call)
        try:
            if not await self._in_time(job, started):
                await asyncio.wait([started])  # the slot is held to here
            handed = await started  # done by now
            if not isinstance(handed, Future):
                return handed
            pooled = asyncio.wrap_future(handed)
            if await self._in_time(job, pooled):
                return await pooled
            pooled.cancel()
            raise DeadlineExceededError(job.deadline_ms, "running")
        finally:
            # cancelled (the service is closing) while the call runs on:
            # what it hands back is cancelled once it ends
            started.cancel()
            call.add_done_callback(_cancel_pooled)

    async def _in_time(self, job: _Job, waiting: "asyncio.Future[Any]") -> bool:
        """Wait for ``waiting`` until the job's deadline.  Past it, answer
        the job with :class:`DeadlineExceededError` — which releases its
        admission place through ``_on_job_done`` — and return False,
        leaving ``waiting`` running."""
        left = None
        if job.deadline is not None:
            left = max(0.0, job.deadline - time.monotonic())
        done, _ = await asyncio.wait([waiting], timeout=left)
        if done:
            return True
        if not job.future.done():
            self.metrics.deadline_missed(job.priority, "running")
            self._fail(job, DeadlineExceededError(job.deadline_ms, "running"))
        return False

    # ------------------------------------------------------------- compress
    async def _compress(self, job: _Job, req: CompressRequest) -> bytes:
        _plan, container = await self._call(job, self._start_compress, req)
        return container

    def _start_compress(
        self, req: CompressRequest
    ) -> Union[_Ran, "Future[_Ran]"]:
        """The one thread call of a compress: admit the field, take the
        plan from the cache, then run the library's own
        :meth:`CompressJob.compress_to` — here, or with a pool whole on
        one worker (:meth:`CompressJob.submit_whole`).  A cache miss
        derives where the job runs: the worker hands back the plan it ran
        with the container, and the cache keeps it."""
        ran: List[_Ran] = []

        def derive(job: CompressJob) -> FrozenPlan:
            if not self._pool.parallel:
                return job.derive()
            ran.append(job.submit_whole(self._pool).result())
            plan = ran[0][0]
            assert plan is not None  # wants_plan: the walk derived one
            return plan

        job = CompressJob(
            req.data, req.codec, req.chunks, req.codec_kwargs,
            req.normalized_bound, req.per_chunk_tuning,
        )
        if job.wants_plan:
            key = plan_cache_key(
                req.codec, req.codec_kwargs, job.bound.mode, job.bound.value,
                field_signature(req.data, req.family),
            )
            job.plan = self.plans.get_or_derive(key, lambda: derive(job))
        if ran:
            return ran[0]
        if self._pool.parallel:
            return job.submit_whole(self._pool)
        buf = io.BytesIO()
        job.compress_to(buf)
        return job.plan, buf.getvalue()

    # ------------------------------------------------------ decompress/read
    @staticmethod
    def _check_decode_size(
        shape: Sequence[int], dtype: "np.dtype[np.generic]", what: str
    ) -> None:
        """Cap attacker-declared output sizes at the protocol frame cap.

        A forged container header can declare an arbitrarily large field
        in a few bytes; the response has to fit in one frame anyway, so
        anything bigger than :data:`MAX_FRAME` is rejected *before* the
        allocation (exact big-int arithmetic — no int64 wraparound)."""
        nbytes = math.prod(int(n) for n in shape) * np.dtype(dtype).itemsize
        if nbytes > MAX_FRAME:
            raise DecompressionError(
                f"declared {what} of {nbytes} bytes exceeds the "
                f"{MAX_FRAME}-byte service frame cap"
            )

    async def _decompress(
        self, job: _Job, req: DecompressRequest
    ) -> np.ndarray:
        blob = req.blob
        header, _ = parse_header(blob[:HEADER_PROBE_BYTES])
        self._check_decode_size(header.shape, header.dtype, "field")
        if header.is_chunked:
            return await self._call(job, self._read, blob, None)
        if self._pool.parallel:
            return await self._call(job, self._pool.submit_decompress, blob)
        return await self._call(job, decompress_any, blob)

    async def _read_slab(self, job: _Job, req: ReadSlabRequest) -> np.ndarray:
        if isinstance(req.source, (bytes, bytearray, memoryview)):
            source: Union[bytes, str] = bytes(req.source)
        else:
            source = self._resolve_path(str(req.source))
        return await self._call(job, self._read, source, req.slab)

    def _read(
        self, source: Union[bytes, str], slab: Optional[Slab]
    ) -> Union[np.ndarray, "Future[np.ndarray]"]:
        """The one thread call of a read (``slab=None``: the whole field):
        open the container — bytes off the wire, or a file under
        ``serve_root`` — and run :meth:`ChunkedFile.read`, or with a pool
        :meth:`ChunkedFile.submit_read`, which has read every chunk it
        needs by the time it returns.  Either way the reader closes here."""
        with ChunkedFile(source) as cf:
            if isinstance(source, bytes):
                # a wire container's declared field is as attacker-
                # controlled as a DECOMPRESS blob's, and a slab decodes
                # every chunk it touches in full
                self._check_decode_size(cf.shape, cf.dtype, "field")
            region = cf.grid.normalize_slab(slab or (None,) * len(cf.shape))
            self._check_decode_size(
                [s.stop - s.start for s in region], cf.dtype, "hyperslab"
            )
            if self._pool.parallel:
                return cf.submit_read(region, self._pool)
            return cf.read(region)

    def _resolve_path(self, path: str) -> str:
        """Confine path-based reads to ``serve_root`` (refuse without one).

        The resolved real path must stay under the root — symlinks and
        ``..`` segments cannot escape it, and the error for a refused
        path never echoes whether it exists.
        """
        root = self.config.serve_root
        if root is None:
            raise PermissionError(
                "path-based reads are disabled (server started without "
                "a serve root); send the container bytes inline instead"
            )
        root_real = os.path.realpath(root)
        candidate = os.path.realpath(os.path.join(root_real, path))
        if candidate != root_real and not candidate.startswith(
            root_real + os.sep
        ):
            raise PermissionError(
                f"path {path!r} is outside the configured serve root"
            )
        return candidate


def _cancel_pooled(started: "Future[Any]") -> None:
    """Cancel the pool future a finished thread call handed back, if any."""
    if not started.cancelled() and started.exception() is None:
        handed = started.result()
        if isinstance(handed, Future):
            handed.cancel()


__all__ = ["CompressionService", "ServiceConfig"]

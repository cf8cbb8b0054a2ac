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
  amortizable step, so the service wraps ``job.derive`` in a
  :class:`~repro.core.plan_cache.PlanLRU` keyed by (codec config, bound
  request, field signature).  Warm traffic on a field family skips tuning
  entirely and goes straight to execution; the quantizer still enforces
  the error bound point-wise on every request, so a cache hit can never
  loosen the guarantee.  One derive is in flight per key: concurrent
  first requests of one ``family=`` run one plan.
* Codec work runs off the event loop.  With ``processes > 1`` all of it
  goes to the long-lived process pool
  (:class:`~repro.parallel.executor.ChunkWorkPool`).  A one-chunk job
  is one hand-over: one worker derives on a cache miss, executes and
  returns the finished container.  A bigger job lends its cache-miss
  derive the workers for the trials, then sends its chunks in slab
  batches under one service-wide window.  Plain-stream decodes and the
  parts of a read are decoded there too.  Otherwise it runs on a small
  thread executor (numpy releases the GIL for the hot kernels, and
  tests stay fork-free).

Container bytes come out of the job's own walk, and hyperslab reads
execute the same :meth:`ChunkedFile.slab_plan` the library path runs —
byte/bit identity between served and in-process results is by
construction, and pinned in ``tests/service``.
"""

from __future__ import annotations

import asyncio
import io
import math
import os
import time
from collections import OrderedDict, deque
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
from repro.parallel.executor import BATCH_CHUNKS, ChunkWorkPool
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


#: threads for the blocking halves of a job (field admission, container
#: I/O, in-process codec work when ``processes <= 1``)
IO_THREADS = 4

#: server-side containers kept open for path-based reads (LRU)
OPEN_FILES = 8


@dataclass
class ServiceConfig:
    """Knobs of one service instance.

    ``processes <= 1`` keeps execution in-process (thread executor, no
    forks, one job at a time) — the right default for tests and small
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
    plan_cache_size: int = 128
    retry_after: float = 0.05
    serve_root: Optional[str] = None
    client_rate: float = 16.0
    client_burst: float = 48.0
    stats_interval: float = 0.0


#: what a one-chunk job's worker hands back: the plan it ran (None for a
#: codec without one, or per-chunk tuning) and the finished container
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
        self.plans = PlanLRU(self.config.plan_cache_size)
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(
            AdmissionLimits(
                max_queue_jobs=max(1, self.config.max_queue),
                min_retry_after=self.config.retry_after,
            ),
            client_rate=self.config.client_rate,
            client_burst=self.config.client_burst,
            mean_run_s=self.metrics.mean_run_s,
        )
        # the pool supervisor reports crash/retry/respawn/degrade events
        # straight into the metrics registry (pool_event is thread-safe)
        self._pool = ChunkWorkPool(
            self.config.processes, on_event=self.metrics.pool_event
        )
        #: job slots: one per worker and one more when the pool fans out,
        #: else one
        self._slots = self.config.processes + 1 if self._pool.parallel else 1
        # a full batch lane of cache-miss derives blocks S - 1 threads;
        # the last slot's job must still find one
        self._threads = ThreadPoolExecutor(
            max_workers=max(IO_THREADS, self._slots),
            thread_name_prefix="repro-svc",
        )
        self._files: "OrderedDict[str, Tuple[Tuple[int, int], ChunkedFile]]" = (
            OrderedDict()
        )
        #: bound on slab batches resident at once, over all running jobs
        self._window = asyncio.Semaphore(self._pool.window_batches)
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
        for _, (_, cf) in self._files.items():
            cf.close()
        self._files.clear()
        self._pool.shutdown()
        self._threads.shutdown(wait=True)

    def _shutting_down(self) -> ServiceOverloadedError:
        return ServiceOverloadedError(self.config.retry_after, "shutting-down")

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
        :mod:`repro.service.admission`).
        """
        loop = asyncio.get_running_loop()
        priority = validate_priority(
            getattr(request, "priority", "interactive")
        )
        attempt = int(getattr(request, "attempt", 0))
        client_id = getattr(request, "client_id", None)
        decision = self.admission.try_admit(request_units(request), client_id)
        if not decision.admitted:
            self.metrics.reject(priority, decision.reason)
            raise ServiceOverloadedError(decision.retry_after, decision.reason)
        self.metrics.admit(priority, attempt)
        future = loop.create_future()
        deadline_ms = getattr(request, "deadline_ms", None)
        if deadline_ms is not None:
            deadline_ms = validate_deadline_ms(deadline_ms)
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
            "open_containers": len(self._files),
        }
        health = self._pool.health()
        out["pool_degraded"] = int(health["pool_mode"] == "serial")
        out["pool_generation"] = int(health["pool_generation"])
        out["pool_consecutive_crashes"] = int(
            health["pool_consecutive_crashes"]
        )
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
        """Run one job, routing the outcome into its future.

        A job with a client deadline runs under ``asyncio.wait_for``:
        hitting the deadline cancels the work coroutine (which cascades
        into the wrapped pool futures, so abandoned chunk results are
        dropped by the pool supervisor) and resolves the job's future
        with :class:`DeadlineExceededError` — releasing its admission
        place through the ordinary ``_on_job_done`` exit path.
        """
        req = job.request
        if isinstance(req, CompressRequest):
            work = self._compress(req)
        elif isinstance(req, DecompressRequest):
            work = self._decompress(req)
        elif isinstance(req, ReadSlabRequest):
            work = self._read_slab(req)
        else:
            self._fail(job, TypeError(f"unschedulable request {type(req).__name__}"))
            return
        try:
            if job.deadline is not None:
                remaining = job.deadline - time.monotonic()
                result = await asyncio.wait_for(work, max(0.0, remaining))
            else:
                result = await work
        except asyncio.TimeoutError:
            self.metrics.deadline_missed(job.priority, "running")
            if not job.future.done():
                job.future.set_exception(
                    DeadlineExceededError(job.deadline_ms, "running")
                )
        except Exception as exc:  # the job's failure, never the service's
            if not job.future.done():
                job.future.set_exception(exc)
        else:
            if not job.future.done():
                job.future.set_result(result)

    # ------------------------------------------------------------- compress
    async def _compress(self, req: CompressRequest) -> bytes:
        loop = asyncio.get_running_loop()
        if not self._pool.parallel:
            prep = await loop.run_in_executor(
                self._threads, self._prepare_compress, req, CompressJob.derive
            )
            # in-process execution IS the library walk, on a thread
            return await loop.run_in_executor(
                self._threads, _container_bytes, prep.compress_to
            )
        handed = await self._await_pooled(self._start_pooled, req)
        if isinstance(handed, CompressJob):
            return await self._compress_batches(handed)
        _plan, container = handed
        return container

    def _prepare_compress(
        self,
        req: CompressRequest,
        derive: Callable[[CompressJob], FrozenPlan],
    ) -> CompressJob:
        """Blocking half: admit the field, take the plan from the cache or,
        on a miss, from ``derive(job)``."""
        job = CompressJob(
            req.data, req.codec, req.chunks, req.codec_kwargs,
            req.normalized_bound, req.per_chunk_tuning,
        )
        if job.wants_plan:
            spec = req.normalized_bound
            key = plan_cache_key(
                req.codec, req.codec_kwargs, spec.mode, spec.value,
                field_signature(req.data, req.family),
            )
            job.plan = self.plans.get_or_derive(key, lambda: derive(job))
        return job

    def _start_pooled(
        self, req: CompressRequest
    ) -> Union[CompressJob, "_Ran", "Future[_Ran]"]:
        """The one thread call of a pooled compress.

        A one-chunk job goes to one worker whole — derive if the cache
        misses, execute, write: the library's own
        :meth:`CompressJob.compress_to` — and comes back as the plan it
        ran and the finished container.  A bigger job comes back planned
        (its derive lends the analysis the pool's workers), for
        :meth:`_compress_batches`.
        """
        ran: List[_Ran] = []

        def derive(job: CompressJob) -> FrozenPlan:
            if len(job.grid) > 1:
                return job.derive(self._pool)
            ran.append(job.submit_whole(self._pool).result())
            plan = ran[0][0]
            assert plan is not None  # wants_plan: the walk derived one
            return plan

        job = self._prepare_compress(req, derive)
        if ran:
            return ran[0]
        return job.submit_whole(self._pool) if len(job.grid) == 1 else job

    async def _await_pooled(self, helper: Callable[..., Any], *args: object) -> Any:
        """``helper(*args)`` on the thread executor, and the pool future
        it hands back, if it hands one back.

        A helper that fills a slab returns the pool future that owns it.
        A deadline can cancel this coroutine while the helper is still
        running on its thread: that pool future is then cancelled the
        moment it exists, which releases the slab.
        """
        started = self._threads.submit(helper, *args)
        try:
            handed = await asyncio.wrap_future(started)
        except asyncio.CancelledError:
            started.add_done_callback(_cancel_pooled)
            raise
        if isinstance(handed, Future):
            return await asyncio.wrap_future(handed)
        return handed

    async def _compress_batches(self, job: CompressJob) -> bytes:
        """A multi-chunk job: slab batches under the service-wide window,
        then the container walk on a thread.  After a batch fails, the
        batches still waiting for the window skip, and the job fails once
        the ones already out have settled: nothing of it is submitted
        after its error is returned."""
        failed = False

        async def one_batch(indices: List[int]) -> List[bytes]:
            nonlocal failed
            async with self._window:  # held from slab fill to completion:
                # the bytes of live slabs never exceed the window's batches
                if failed:
                    return []
                views = [job.data[job.grid.chunk_slices(i)] for i in indices]
                try:
                    return await self._await_pooled(
                        self._pool.submit_compress_views,
                        job.codec_name, job.codec_kwargs, views, job.eb, job.plan,
                    )
                except Exception:
                    failed = True
                    raise

        indices = list(job.grid)
        blob_lists = _first_failure(await asyncio.gather(*[
            one_batch(indices[k:k + BATCH_CHUNKS])
            for k in range(0, len(indices), BATCH_CHUNKS)
        ], return_exceptions=True))
        blobs = [b for lst in blob_lists for b in lst]
        return await asyncio.get_running_loop().run_in_executor(
            self._threads, _container_bytes, job.write, enumerate(blobs)
        )

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

    async def _decompress(self, req: DecompressRequest) -> np.ndarray:
        blob = req.blob
        header, _ = parse_header(blob[:HEADER_PROBE_BYTES])
        self._check_decode_size(header.shape, header.dtype, "field")
        if not header.is_chunked:
            if self._pool.parallel:
                # off the loop like every pool submit: acquiring a lane
                # may build or heal the executor
                return await self._await_pooled(
                    self._pool.submit_decompress, blob
                )
            return await asyncio.get_running_loop().run_in_executor(
                self._threads, decompress_any, blob
            )
        cf = ChunkedFile(blob)
        try:
            full = tuple(slice(0, n) for n in cf.shape)
            return await self._read_from(cf, full)
        finally:
            cf.close()

    async def _read_slab(self, req: ReadSlabRequest) -> np.ndarray:
        if isinstance(req.source, (bytes, bytearray, memoryview)):
            cf = ChunkedFile(bytes(req.source))
            try:
                # wire-delivered container: its declared field size is as
                # attacker-controlled as a DECOMPRESS blob's
                self._check_decode_size(cf.shape, cf.dtype, "field")
                return await self._read_from(cf, req.slab)
            finally:
                cf.close()
        cf = await self._open_container(self._resolve_path(str(req.source)))
        return await self._read_from(cf, req.slab)

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

    async def _open_container(self, path: str) -> ChunkedFile:
        """Open (or reuse) a server-side container, LRU + mtime-validated."""
        loop = asyncio.get_running_loop()
        st = await loop.run_in_executor(self._threads, os.stat, path)
        stamp = (st.st_mtime_ns, st.st_size)
        cached = self._files.pop(path, None)
        if cached is not None and cached[0] == stamp:
            self._files[path] = cached  # re-insert = move to MRU end
            return cached[1]
        if cached is not None:
            cached[1].close()
        cf = await loop.run_in_executor(self._threads, ChunkedFile, path)
        self._files[path] = (stamp, cf)
        while len(self._files) > OPEN_FILES:
            _, (_, old) = self._files.popitem(last=False)
            old.close()
        return cf

    async def _settled(
        self, fn: Callable[..., Any], *arglists: Sequence[Any]
    ) -> List[Any]:
        """``fn`` over the argument lists on the thread executor.  A
        failure is raised once every call has settled, so a failed request
        leaves no decode running behind it."""
        loop = asyncio.get_running_loop()
        return _first_failure(await asyncio.gather(*[
            loop.run_in_executor(self._threads, fn, *args)
            for args in zip(*arglists)
        ], return_exceptions=True))

    async def _read_from(self, cf: ChunkedFile, slab: Slab) -> np.ndarray:
        """Concurrent-decode execution of ``ChunkedFile.slab_plan``."""
        out_shape, parts = cf.slab_descriptors(slab)
        self._check_decode_size(out_shape, cf.dtype, "hyperslab")
        if not parts:
            return np.empty(out_shape, dtype=cf.dtype)
        indices = [i for i, _, _ in parts]
        blobs = await self._settled(cf.chunk_bytes, indices)
        if self._pool.parallel:
            return await self._await_pooled(
                self._pool.submit_decode_parts,
                cf.decode_parts(parts, blobs), out_shape, cf.dtype,
            )
        out = np.empty(out_shape, dtype=cf.dtype)
        chunks = await self._settled(cf.chunk_from, indices, blobs)
        for (_, src, dst), chunk in zip(parts, chunks):
            out[_slices(dst)] = chunk[_slices(src)]
        return out


def _slices(bounds: Sequence[Tuple[int, int]]) -> Tuple[slice, ...]:
    return tuple(slice(start, stop) for start, stop in bounds)


def _container_bytes(walk: Callable[..., object], *args: object) -> bytes:
    """Run one of a job's container walks into memory."""
    buf = io.BytesIO()
    walk(buf, *args)
    return buf.getvalue()


def _first_failure(results: List[Any]) -> List[Any]:
    """``results`` of a settled ``gather(..., return_exceptions=True)``,
    or the first exception among them, raised."""
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def _cancel_pooled(started: "Future[Any]") -> None:
    """Cancel the pool future a finished helper call produced, if any."""
    if not started.cancelled() and started.exception() is None:
        handed = started.result()
        if isinstance(handed, Future):
            handed.cancel()


__all__ = ["CompressionService", "ServiceConfig"]

"""One pooled fan-out: every process pool and every slab lives here.

:class:`ChunkWorkPool` is the only code in the package that constructs a
``ProcessPoolExecutor`` or creates a :class:`~repro.parallel.slab.Slab`.
The library (every ``processes=`` call) borrows the one process-wide
pool that :func:`kept_pool` keeps warm; the service keeps its own for
its lifetime.  Both drive the same helpers:

* :meth:`ChunkWorkPool.submit_compress_views` packs a batch of chunk
  views into an input slab and resolves to their streams — chunk
  *payloads* never ride the pickle channel, the submitted job is
  ``(slab_name, descriptors, codec, ...)``, a few hundred bytes;
* :meth:`ChunkWorkPool.submit_decode_parts` decodes hyperslab parts
  (``slab.DECODE_PART_LAYOUT``) into an output slab and resolves to the
  assembled array — decoded chunks are never pickled back;
* :meth:`ChunkWorkPool.submit_array` runs one function on one array on
  one worker (``slab.ARRAY_JOB_LAYOUT``) — the service's compress job,
  derive and container included; :meth:`ChunkWorkPool.map_stack` deals
  a derive step's trials over every worker under the same layout;
* :meth:`ChunkWorkPool.compress_stream` is the synchronous windowed
  generator over the first.

The helpers release their slab when their future is done — result,
error or cancel — so no caller can leak one.  Chunk jobs optionally
carry a :class:`~repro.core.plan_cache.FrozenPlan` derived once from the
full field; workers then run only the execution half of the codec.

Scientific dumps also hold many independent *fields* (the paper's RTM
has 3600, Hurricane 48x13; Fig. 14): :func:`compress_fields_parallel` /
:func:`decompress_blobs_parallel` fan those out over the same pool.
Codecs are rebuilt per job because compressor instances hold per-call
state (``last_report``).
"""

from __future__ import annotations

import math
import os
import signal
import threading
from collections import deque
from concurrent.futures import Future, InvalidStateError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing.util import Finalize
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.compressors.base import available_compressors, decompress_any, get_compressor
from repro.errors import ChunkCorruptionError, WorkerCrashError, shape_disagreement
from repro.parallel.slab import (
    ArrayJob,
    DecodePart,
    Slab,
    attach_slab,
    detach_slab,
    share_tracker_with_children,
)

#: chunks packed into one slab batch: one submit amortizes the dispatch
#: overhead of this many chunks
BATCH_CHUNKS = 2

#: slab-resident chunks allowed per worker; with BATCH_CHUNKS this keeps
#: every worker busy with one batch queued behind it while peak memory
#: stays bounded by the window, not the field
WINDOW_PER_WORKER = 4

#: pool breaks a job may be in flight for; at this one it reruns alone
MAX_JOB_CRASHES = 2


def _compress_one(args) -> bytes:
    name, kwargs, field, error_bound, rel_error_bound = args
    return get_compressor(name, **kwargs).compress(
        field, error_bound, rel_error_bound
    )


def _own_signals() -> None:
    """Worker initializer.  A worker forked under an asyncio loop inherits
    the loop's signal wakeup fd and no-op handlers: the SIGTERM a healing
    pool sends *it* would reach the parent's loop instead and stop a
    server that handles SIGTERM."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _compress_batch(args) -> List[bytes]:
    """Worker: compress every chunk described by one slab batch.

    ``args`` is ``(slab_name, descriptors, codec_name, codec_kwargs,
    error_bound, plan)`` where each descriptor is ``(offset, shape,
    dtype)`` into the named input slab (layout pinned by
    ``slab.SLAB_DESCRIPTOR_LAYOUT`` in the wire registry).  The worker
    never takes slab ownership; re-dispatch after a crash ships the
    identical descriptors, so retried streams stay byte-identical.
    """
    slab_name, descriptors, codec_name, codec_kwargs, error_bound, plan = args
    codec = get_compressor(codec_name, **codec_kwargs)
    shm = attach_slab(slab_name)
    try:
        blobs: List[bytes] = []
        for offset, shape, dtype in descriptors:
            view = np.ndarray(
                tuple(shape), dtype=np.dtype(dtype),
                buffer=shm.buf, offset=offset,
            )
            blobs.append(codec.compress_with_plan(view, plan, error_bound))
            del view  # views must die before the mapping closes
        return blobs
    finally:
        detach_slab(shm)


def _array_job(job: ArrayJob) -> Any:
    """Worker: ``fn(array, *args)`` on a slab-resident array — a share of
    a derive step's independent trials, or a whole field
    (``ARRAY_JOB_LAYOUT``).  The callers' functions are deterministic and
    read the array only, so a crash retry returns the same."""
    offset, shape, dtype = job.array
    shm = attach_slab(job.slab)
    try:
        array = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        try:
            return job.fn(array, *job.args)
        finally:
            del array  # views must die before the mapping closes
    finally:
        detach_slab(shm)


def _decompress_into_batch(args) -> int:
    """Worker: decode blobs and write regions into a shared output slab.

    ``args`` is ``(slab_name, out_shape, out_dtype, parts)`` with each
    part laid out as ``slab.DECODE_PART_LAYOUT``; bounds are per-axis
    ``(start, stop)`` pairs (plain ints pickle smaller than slice
    objects and keep the job layout introspectable).  A chunk that
    decodes to another shape than its index entry raises
    :class:`ChunkCorruptionError`, as the in-process read does.  Writes
    are idempotent — a crash retry rewrites the same values — so this
    rides the supervisor's heal/retry paths unchanged.
    """
    slab_name, out_shape, out_dtype, parts = args
    shm = attach_slab(slab_name)
    try:
        out = np.ndarray(
            tuple(out_shape), dtype=np.dtype(out_dtype), buffer=shm.buf
        )
        for part in map(DecodePart._make, parts):
            chunk = decompress_any(part.blob)
            if chunk.shape != tuple(part.shape):
                raise ChunkCorruptionError(
                    part.index, part.start, part.shape,
                    shape_disagreement(chunk.shape),
                )
            src = tuple(slice(a, b) for a, b in part.src)
            dst = tuple(slice(a, b) for a, b in part.dst)
            out[dst] = chunk[src]
        done = len(parts)
        del out  # views must die before the mapping closes
        return done
    finally:
        detach_slab(shm)


def _on_slab(
    arrays: Sequence[np.ndarray], submit: Callable[[str, list], "Future"]
) -> "Future":
    """``submit(slab name, descriptors)`` of ``arrays`` packed into a fresh
    slab — the one copy per array, in the calling thread; views may be
    lazy memmap slices.  The slab is released in the future's
    done-callback: on result, error and cancel alike."""
    slab = Slab.create(max(1, sum(int(a.nbytes) for a in arrays)))
    try:
        future = submit(slab.name, slab.pack(arrays))
    except BaseException:
        slab.release()
        raise
    future.add_done_callback(lambda _f: slab.release())
    return future


def compress_fields_parallel(
    fields: Sequence[np.ndarray],
    codec_name: str,
    codec_kwargs: Optional[Dict] = None,
    error_bound: Optional[float] = None,
    rel_error_bound: Optional[float] = None,
    processes: Optional[int] = None,
) -> List[bytes]:
    """Compress every field of a dump, one pool job per field.

    With ``processes=1`` (or a single field) everything runs in-process,
    which keeps unit tests cheap and avoids fork overhead for tiny inputs.
    """
    jobs = [
        (codec_name, codec_kwargs or {}, f, error_bound, rel_error_bound)
        for f in fields
    ]
    if processes == 1 or len(jobs) <= 1:
        return [_compress_one(j) for j in jobs]
    with kept_pool(processes) as pool:
        futures = [pool._submit(_compress_one, j) for j in jobs]
        return [f.result() for f in futures]


def decompress_blobs_parallel(
    blobs: Sequence[bytes], processes: Optional[int] = None
) -> List[np.ndarray]:
    """Decompress many streams in parallel (codec-routing per stream)."""
    if processes == 1 or len(blobs) <= 1:
        return [decompress_any(b) for b in blobs]
    with kept_pool(processes) as pool:
        futures = [pool.submit_decompress(b) for b in blobs]
        return [f.result() for f in futures]


class ChunkWorkPool:
    """*Self-healing* process pool that owns every slab it ships.

    ONE ``ProcessPoolExecutor`` serves the pool's lifetime — every
    library call of a process (:func:`kept_pool`), every request of a
    service (fork cost per call would swamp small jobs).
    It is spawned lazily on the first submit, so constructing a service
    with ``processes <= 1`` never forks at all.  Submits return
    ``concurrent.futures`` futures: the library blocks on them, an
    asyncio scheduler wraps them with ``asyncio.wrap_future``.

    On top of that sits a supervisor with two rules (DESIGN.md §12).  A
    worker dying of OOM/segfault bricks a raw ``ProcessPoolExecutor``
    permanently (every in-flight future gets ``BrokenProcessPool`` and
    every later submit re-raises it), so callers never see raw pool
    futures: each submit returns an *outer* future, and the supervisor
    routes the inner pool future's outcome into it.

    * **Heal.**  The first observer of a break (generation-checked, so a
      batch of simultaneous failures heals once) tears the executor
      down; the next dispatch builds a fresh one.  Every job in flight
      at the break is re-dispatched.
    * **Charge only the job that killed the worker.**  A break does not
      say whose job it was, so a job in flight at its
      :data:`MAX_JOB_CRASHES`-th break reruns alone, on a one-worker
      executor of its own.  If that worker dies too the job is
      *poisoned* and fails with :class:`WorkerCrashError`; its
      bystanders return their results.  No job ever runs in the calling
      process.

    Every supervisor event (``crash``, ``retry``, ``respawn``,
    ``poisoned``) is reported through ``on_event`` (the service wires
    this to ``ServiceMetrics.pool_event``).

    Crash retries re-ship the payload (or slab descriptor) verbatim, so
    a stream compressed through the pool is byte-identical to one
    compressed inline.  Slab ownership (DESIGN.md §13):
    :meth:`submit_compress_views` and :meth:`submit_decode_parts` create
    their slab and release it when their future is done, which is after
    any heal/retry/poison has run its course.  The raw
    :meth:`submit_compress_batch` takes a caller-made slab by name and
    never unlinks it.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        on_event: Optional[Callable[[str], None]] = None,
        mp_context=None,
    ) -> None:
        self.processes = processes
        self._on_event = on_event
        self._mp_context = mp_context
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        #: one-worker executors of jobs rerunning alone
        self._lone: Set[ProcessPoolExecutor] = set()
        self._generation = 0
        self._closed = False
        self._ever_built = False
        #: library calls inside ``with kept_pool(...)`` on this pool right
        #: now (the registry's count, under the registry's lock)
        self.borrowers = 0

    @property
    def workers(self) -> int:
        """Worker processes a fresh pool is built with."""
        return max(1, self.processes or os.cpu_count() or 1)

    @property
    def window_batches(self) -> int:
        """Slab batches that may be in flight at once (the memory bound)."""
        return max(1, WINDOW_PER_WORKER * self.workers // BATCH_CHUNKS)

    @property
    def parallel(self) -> bool:
        """Whether submits actually fan out to worker processes."""
        return self.processes is not None and self.processes > 1

    # ------------------------------------------------------------ supervisor
    def _emit(self, kind: str) -> None:
        if self._on_event is not None:
            self._on_event(kind)

    def _new_executor(self, workers: Optional[int] = None) -> ProcessPoolExecutor:
        share_tracker_with_children()
        return ProcessPoolExecutor(
            max_workers=workers or self.processes, mp_context=self._mp_context,
            initializer=_own_signals,
        )

    def _acquire(self) -> Tuple[ProcessPoolExecutor, int]:
        """The shared executor, built on demand, and its generation."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a shut-down ChunkWorkPool")
            if self._pool is None:
                self._pool = self._new_executor()
                if self._ever_built:
                    self._emit("respawn")
                self._ever_built = True
            return self._pool, self._generation

    def _note_crash(self, gen: int) -> None:
        """Heal one pool break: teardown now, a fresh pool on next dispatch.

        Every in-flight job of a broken pool observes the same break;
        the generation counter makes the first observer do the healing
        and turns the rest into no-ops.
        """
        with self._lock:
            if self._closed or gen != self._generation:
                return
            self._generation += 1
            dead, self._pool = self._pool, None
        if dead is not None:
            try:
                dead.shutdown(wait=False, cancel_futures=True)
            except (OSError, RuntimeError):
                pass  # a broken executor may refuse; it is already dead
        self._emit("crash")

    # -------------------------------------------------------------- dispatch
    def _submit(self, fn: Callable, payload) -> "Future":
        outer: Future = Future()
        self._dispatch(fn, payload, outer, crashes=0)
        return outer

    def _dispatch(self, fn: Callable, payload, outer: "Future", crashes: int) -> None:
        while not outer.cancelled():
            pool, gen = self._acquire()
            try:
                inner = pool.submit(fn, payload)
            except BrokenProcessPool:
                # the pool broke between two of our submits; heal and
                # retry the dispatch (this is a pool fault, not a job
                # fault — the job never ran, so its crash count is
                # untouched)
                self._note_crash(gen)
                continue
            inner.add_done_callback(
                lambda f: self._job_done(f, fn, payload, outer, crashes, gen)
            )
            return

    def _run_alone(self, fn: Callable, payload, outer: "Future") -> None:
        """Rerun one job on a one-worker executor of its own: a worker
        that dies there was killed by this job and no other."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a shut-down ChunkWorkPool")
            lone = self._new_executor(1)
            self._lone.add(lone)
        try:
            inner = lone.submit(fn, payload)
        except (RuntimeError, OSError):
            self._retire(lone)
            raise
        inner.add_done_callback(lambda f: self._alone_done(f, lone, outer))

    def _retire(self, lone: ProcessPoolExecutor) -> None:
        with self._lock:
            self._lone.discard(lone)
        lone.shutdown(wait=False)

    def _job_done(
        self, inner: "Future", fn: Callable, payload, outer: "Future",
        crashes: int, gen: int,
    ) -> None:
        if not self._broke(inner, outer):
            return
        self._note_crash(gen)
        crashes += 1
        self._emit("retry")
        try:
            if crashes < MAX_JOB_CRASHES:
                self._dispatch(fn, payload, outer, crashes)
            else:
                self._run_alone(fn, payload, outer)
        except (RuntimeError, OSError) as exc:
            # shut down (or out of processes) under a crashed job: nothing
            # will run it again, so it must not be left unresolved
            self._set_exception(
                outer, WorkerCrashError(f"job lost its worker and cannot rerun: {exc}")
            )

    def _alone_done(
        self, inner: "Future", lone: ProcessPoolExecutor, outer: "Future"
    ) -> None:
        self._retire(lone)
        if self._broke(inner, outer):
            self._emit("poisoned")
            self._set_exception(
                outer,
                WorkerCrashError(
                    "job killed its worker again running alone "
                    "(pool healed; this job is poisoned)"
                ),
            )

    def _broke(self, inner: "Future", outer: "Future") -> bool:
        """Whether ``inner`` lost its worker; if not, its outcome is now
        ``outer``'s."""
        if outer.cancelled():
            return False
        if inner.cancelled():
            # only shutdown cancels queued inner futures; mirror it
            outer.cancel()
            return False
        exc = inner.exception()
        if isinstance(exc, BrokenProcessPool):
            return True
        if exc is not None:
            self._set_exception(outer, exc)
        else:
            self._set_result(outer, inner.result())
        return False

    @staticmethod
    def _set_result(outer: "Future", value) -> None:
        if not outer.cancelled():
            try:
                outer.set_result(value)
            except InvalidStateError:
                pass  # lost a race with a caller-side cancel

    @staticmethod
    def _set_exception(outer: "Future", exc: BaseException) -> None:
        if not outer.cancelled():
            try:
                outer.set_exception(exc)
            except InvalidStateError:
                pass  # lost a race with a caller-side cancel

    # ------------------------------------------------------------------- api
    def submit_decompress(self, blob: bytes) -> "Future":
        """Submit one stream decode; returns a concurrent future."""
        return self._submit(decompress_any, blob)

    def submit_compress_batch(
        self,
        codec_name: str,
        codec_kwargs: Optional[Dict],
        slab_name: str,
        descriptors: Sequence[Tuple[int, Tuple[int, ...], str]],
        error_bound: float,
        plan=None,
    ) -> "Future":
        """Submit one slab batch of chunk compressions (one future, many
        chunks).  The future resolves to the list of streams in
        descriptor order.  The caller made the slab and must keep it
        alive until the future resolves — crash retries re-attach it.
        """
        job = (
            slab_name, tuple(descriptors), codec_name, codec_kwargs or {},
            error_bound, plan,
        )
        return self._submit(_compress_batch, job)

    def submit_compress_views(
        self,
        codec_name: str,
        codec_kwargs: Optional[Dict],
        views: Sequence[np.ndarray],
        error_bound: float,
        plan=None,
    ) -> "Future":
        """Compress a batch of chunk views; resolves to their streams.

        The views travel in one slab (:func:`_on_slab`).  Every chunk
        shares the single *absolute* ``error_bound``: the caller resolves
        a relative bound against the full field first, otherwise each
        chunk would scale it by its local value range.
        """
        return _on_slab(views, lambda name, descriptors: self.submit_compress_batch(
            codec_name, codec_kwargs, name, descriptors, error_bound, plan,
        ))

    def submit_array(self, fn: Callable, array: np.ndarray, *args) -> "Future":
        """``fn(array, *args)`` on one worker; resolves to its result.

        ``array`` travels in a slab (:func:`_on_slab`); ``fn`` rides the
        pickle channel by name, so it must be a module-level function,
        and must leave the array unchanged.
        """
        return _on_slab([array], lambda name, descriptors: self._submit(
            _array_job, ArrayJob(name, descriptors[0], fn, args)
        ))

    def map_stack(self, fn: Callable, stack: np.ndarray, items, *spec) -> list:
        """``fn(stack, items, *spec)``, the items dealt over the workers.

        ``stack`` travels once, in a slab this call owns and releases on
        every way out; each worker takes an interleaved share, and the
        results come back in ``items`` order.  Blocks until all are in.
        """
        shares = min(len(items), self.workers)
        slab = Slab.create(max(1, int(stack.nbytes)))
        futures: List[Future] = []
        try:
            (where,) = slab.pack([stack])
            for k in range(shares):
                args = (tuple(items[k::shares]), *spec)
                futures.append(
                    self._submit(_array_job, ArrayJob(slab.name, where, fn, args))
                )
            out: list = [None] * len(items)
            for k, future in enumerate(futures):
                out[k::shares] = future.result()
            return out
        finally:
            for future in futures:
                future.cancel()
            slab.release()

    def compress_stream(
        self,
        chunks: Iterable[Tuple[int, np.ndarray]],
        codec_name: str,
        codec_kwargs: Optional[Dict],
        error_bound: float,
        plan=None,
    ) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(index, blob)`` for a stream of chunk jobs, in submit
        order.

        Chunks go out :data:`BATCH_CHUNKS` at a time through
        :meth:`submit_compress_views`; at most :attr:`window_batches`
        batches are in flight, so peak memory stays bounded by the
        window even when ``chunks`` lazily slices a memory-mapped array.
        Closing the generator early (or a failing job) cancels what is
        still pending, which releases those slabs.
        """
        pending: Deque[Tuple[List[int], Future]] = deque()
        indices: List[int] = []
        views: List[np.ndarray] = []

        def flush() -> None:
            nonlocal indices, views
            if indices:
                future = self.submit_compress_views(
                    codec_name, codec_kwargs, views, error_bound, plan
                )
                pending.append((indices, future))
                indices, views = [], []

        def drain_oldest() -> Iterator[Tuple[int, bytes]]:
            batch, future = pending.popleft()
            return zip(batch, future.result())

        try:
            for index, view in chunks:
                indices.append(index)
                views.append(view)
                if len(indices) >= BATCH_CHUNKS:
                    flush()
                while len(pending) >= self.window_batches:
                    yield from drain_oldest()
            flush()
            while pending:
                yield from drain_oldest()
        finally:
            for _, future in pending:
                future.cancel()

    def submit_decode_parts(
        self,
        parts: Sequence[tuple],
        out_shape: Sequence[int],
        out_dtype,
    ) -> "Future":
        """Decode hyperslab parts into one array.

        Each part is laid out as ``slab.DECODE_PART_LAYOUT`` (built by
        :meth:`repro.chunked.api.ChunkedFile.submit_read`); a worker
        checks each decoded chunk against its index entry and writes
        ``decoded[src]`` into ``out[dst]`` of a fresh output slab.  The
        regions of a hyperslab plan are disjoint by construction, so
        concurrent writes never overlap.  Parts are dealt round-robin
        into one batch per worker (times two, for stragglers).  The
        last batch to finish copies the array out and releases the
        slab; an error or a cancel releases it too and drops the rest.
        """
        dtype = np.dtype(out_dtype)
        shape = tuple(int(n) for n in out_shape)
        slab = Slab.create(max(1, dtype.itemsize * math.prod(shape)))
        outer: Future = Future()
        n_batches = max(1, min(len(parts), 2 * self.workers))
        batches: List[Future] = []
        remaining = n_batches
        lock = threading.Lock()

        def abandon(_outer: "Future") -> None:
            for future in batches:
                future.cancel()
            slab.release()

        def batch_done(future: "Future") -> None:
            nonlocal remaining
            if future.cancelled() or outer.done():
                return
            exc = future.exception()
            if exc is not None:
                self._set_exception(outer, exc)
                return
            with lock:
                remaining -= 1
                last = remaining == 0
            if last:
                view = slab.view(0, shape, dtype)
                result = np.array(view)  # copy out before the unlink
                del view
                slab.release()
                self._set_result(outer, result)

        outer.add_done_callback(abandon)
        try:
            for b in range(n_batches):
                job = (slab.name, shape, dtype.str, tuple(parts[b::n_batches]))
                batches.append(self._submit(_decompress_into_batch, job))
        except BaseException:
            outer.cancel()
            raise
        for future in batches:
            future.add_done_callback(batch_done)
        return outer

    def shutdown(self) -> None:
        """Idempotent teardown that tolerates an already-broken pool; it
        stops the one-worker executors of jobs rerunning alone too."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executors = [self._pool, *self._lone]
            self._pool = None
        for executor in executors:
            if executor is None:
                continue
            try:
                executor.shutdown(wait=True, cancel_futures=True)
            except (OSError, RuntimeError):
                pass  # a broken executor may raise on shutdown; it is gone


# ----------------------------------------------------------- the kept pool
_kept: Optional[ChunkWorkPool] = None
_kept_for: tuple = ()  # (worker count, codec names) its workers were forked with
_kept_lock = threading.RLock()
_kept_exit: Optional[Finalize] = None
_parked: List[Optional[ChunkWorkPool]] = []


@contextmanager
def kept_pool(processes: Optional[int]) -> Iterator[ChunkWorkPool]:
    """Borrow the process-wide pool for the length of one library call.

    Forked by the first ``processes > 1`` call, kept warm for every later
    one on any thread, stopped by :func:`shutdown_pool` or at exit.  A
    different worker count, or a codec registered since the fork,
    replaces it: the old pool is shut down first — or, while another
    thread's call still runs on it, by that call as it returns.
    """
    global _kept, _kept_for, _kept_exit
    wanted = (processes, available_compressors())
    with _kept_lock:
        if _kept is not None and _kept_for != wanted:
            shutdown_pool()
        if _kept is None:
            _kept, _kept_for = ChunkWorkPool(processes), wanted
            # multiprocessing's exit hook, not atexit: a Process child
            # joins its children before atexit or the executor's own
            # handler would stop them; 100 = ahead of the queues' closers
            if _kept_exit is None or not _kept_exit.still_active():
                _kept_exit = Finalize(None, shutdown_pool, exitpriority=100)
        pool = _kept
        pool.borrowers += 1
    try:
        yield pool
    finally:
        with _kept_lock:
            pool.borrowers -= 1
            if pool.borrowers == 0 and pool is not _kept:
                pool.shutdown()


def shutdown_pool() -> None:
    """Stop the kept pool's workers now; the next pooled call forks anew."""
    global _kept
    with _kept_lock:
        pool, _kept = _kept, None
        if pool is not None and pool.borrowers == 0:
            pool.shutdown()


def _forget_kept_pool() -> None:
    """In a forked child (the pool's own workers included) the kept pool
    has no threads: park it — collecting its executor would take a lock
    that a thread which was not copied may hold — and start empty."""
    global _kept, _kept_lock
    _parked.append(_kept)
    _kept, _kept_lock = None, threading.RLock()


os.register_at_fork(after_in_child=_forget_kept_pool)

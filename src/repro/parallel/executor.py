"""One pooled fan-out: every worker process and every slab lives here.

:class:`ChunkWorkPool` is the only code in the package that starts a
worker process or creates a :class:`~repro.parallel.slab.Slab`.
The library (every ``processes=`` call) borrows the one process-wide
pool that :func:`kept_pool` keeps warm; the service keeps its own for
its lifetime.

A job is ``fn(arg)`` on a worker.  Bulk arrays never ride its pickle
channel: a job that needs one is an array job (``slab.ARRAY_JOB_LAYOUT``),
``fn(array, *args)`` on a view into a slab, and :func:`_array_job` is
the one worker function that attaches a slab.  Every fan-out settles
through one :func:`_gather`:

* :meth:`ChunkWorkPool.compress_stream` packs each batch of chunk views
  into a slab, one job per chunk, and yields their streams in a bounded
  window;
* :meth:`ChunkWorkPool.submit_decode_parts` decodes hyperslab parts
  (``slab.DECODE_PART_LAYOUT``) into an output slab, a share of them
  per job, and resolves to the assembled array;
* :meth:`ChunkWorkPool.map_stack` deals a derive step's trials over
  every worker, and :meth:`ChunkWorkPool.submit_array` runs one function
  on one array — the service's compress job, derive and container
  included.

A slab is released when the future that owns it is done — result, error
or cancel — so no caller can leak one.  Chunk jobs carry the field's
:class:`~repro.core.plan_cache.FrozenPlan` (or ``None``), so workers run
only the execution half of the codec.

Scientific dumps also hold many independent *fields* (the paper's RTM
has 3600, Hurricane 48x13; Fig. 14): :func:`compress_fields_parallel` /
:func:`decompress_blobs_parallel` fan those out over the same pool.
Codecs are rebuilt per job because compressor instances hold per-call
state (``last_report``).
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import os
import pickle
import signal
import threading
from collections import deque
from concurrent.futures import Future, InvalidStateError
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import wait
from multiprocessing.util import Finalize
from typing import (
    Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
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

#: chunks packed into one slab batch: one slab and one future serve
#: this many chunk jobs
BATCH_CHUNKS = 2

#: slab-resident chunks allowed per worker; with BATCH_CHUNKS this keeps
#: every worker busy with one batch queued behind it while peak memory
#: stays bounded by the window, not the field
WINDOW_PER_WORKER = 4

#: worker deaths a job may cause; at this one it fails, poisoned
MAX_JOB_CRASHES = 2

#: held from a worker's pipe to the close of the child's end in the
#: parent, and by every fork: a process forked in between would hold a
#: copy of that end, and the worker's death would never reach EOF
_SPAWN_LOCK = threading.RLock()
os.register_at_fork(
    before=_SPAWN_LOCK.acquire,
    after_in_parent=_SPAWN_LOCK.release,
    after_in_child=_SPAWN_LOCK.release,
)


def _compress_field(field, name, kwargs, error_bound, rel_error_bound) -> bytes:
    return get_compressor(name, **kwargs).compress(
        field, error_bound, rel_error_bound
    )


def _own_signals() -> None:
    """A worker forked under an asyncio loop inherits the loop's signal
    wakeup fd and no-op handlers: the SIGTERM multiprocessing sends a
    daemonic worker at exit would reach the parent's loop instead and
    stop a server that handles SIGTERM."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _serve(conn, owner_end) -> None:
    """Worker: run ``fn(arg)`` for each pickled ``(fn, arg)`` on ``conn``
    and send back one reply per job, until killed.  The copy of the
    owner's end inherited at fork is closed, so the owner's death
    reaches EOF here and ends the worker."""
    _own_signals()
    owner_end.close()
    while True:
        job = conn.recv_bytes()
        try:
            fn, arg = pickle.loads(job)
            result = fn(arg)
        except BaseException as exc:  # the job's own error is its reply
            _reply(conn, False, exc)
        else:
            _reply(conn, True, result)


def _reply(conn, ok: bool, value) -> None:
    """Worker: send one job's outcome.  A result or exception that does
    not pickle sends the pickling error itself in its place."""
    try:
        reply = pickle.dumps((ok, value))
    except Exception as exc:
        return _reply(conn, False, exc)
    conn.send_bytes(reply)


def _resolve(future: "Future", ok: bool, value) -> None:
    """Settle ``future`` with a result or an exception, unless its caller
    cancelled it first."""
    try:
        (future.set_result if ok else future.set_exception)(value)
    except InvalidStateError:
        pass  # lost a race with a caller-side cancel


def _gather(futures: Iterable["Future"], then: Callable[[list], Any]) -> "Future":
    """One future for many: it resolves to ``then(their results in
    order)``, at once for none.  The first error fails it, an inner
    cancel cancels it, and cancelling it cancels every inner future; an
    error of ``then`` fails it too, so no callback here raises.  (A
    submit that raises means the pool shut down, which settles every job
    made before it.)"""
    outer: Future = Future()
    inner = list(futures)
    results: list = [None] * len(inner)
    left = len(inner)
    lock = threading.Lock()

    def finish() -> None:
        try:
            value = then(results)
        except Exception as exc:
            return _resolve(outer, False, exc)
        _resolve(outer, True, value)

    def one_done(k: int, future: "Future") -> None:
        nonlocal left
        if outer.done():
            return
        if future.cancelled():
            outer.cancel()
        elif future.exception() is not None:
            _resolve(outer, False, future.exception())
        else:
            with lock:
                results[k] = future.result()
                left -= 1
                last = left == 0
            if last:
                finish()

    def cancel_inner(_outer: "Future") -> None:
        for future in inner:
            future.cancel()

    outer.add_done_callback(cancel_inner)
    for k, future in enumerate(inner):
        future.add_done_callback(functools.partial(one_done, k))
    if not inner:
        finish()
    return outer


def _compress_chunk(view, codec_name, codec_kwargs, error_bound, plan) -> bytes:
    """Worker: one chunk of a slab batch, by the call the in-process walk
    makes on it — so a pooled stream is the serial one."""
    return get_compressor(codec_name, **codec_kwargs).compress_with_plan(
        view, plan, error_bound
    )


def _decode_parts(out: np.ndarray, parts) -> None:
    """Worker: decode each part (``slab.DECODE_PART_LAYOUT``) and write
    its region into ``out``, the read's output slab; bounds are per-axis
    ``(start, stop)`` pairs (plain ints pickle smaller than slices).  A
    chunk that decodes to another shape than its index entry raises
    :class:`ChunkCorruptionError`, as the in-process read does."""
    for part in map(DecodePart._make, parts):
        chunk = decompress_any(part.blob)
        if chunk.shape != tuple(part.shape):
            raise ChunkCorruptionError(
                part.index, part.start, part.shape,
                shape_disagreement(chunk.shape),
            )
        src = tuple(slice(a, b) for a, b in part.src)
        out[tuple(slice(a, b) for a, b in part.dst)] = chunk[src]


def _array_job(job: ArrayJob) -> Any:
    """Worker: ``fn(array, *args)`` on a slab-resident array
    (``ARRAY_JOB_LAYOUT``) — the one worker function that attaches a
    slab.  ``fn`` is deterministic and reads the array, or writes its
    own disjoint regions of it (a read's decode share), so a crash retry
    returns — and writes — the same."""
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


def _owning(slab: Slab, submit: Callable[[], "Future"]) -> "Future":
    """``submit()``, whose future then owns ``slab``: it is released in
    the future's done-callback — on result, error and cancel alike — or
    at once if ``submit`` raises."""
    try:
        future = submit()
    except BaseException:
        slab.release()
        raise
    future.add_done_callback(lambda _f: slab.release())
    return future


def _on_slab(
    arrays: Sequence[np.ndarray], submit: Callable[[str, list], "Future"]
) -> "Future":
    """``submit(slab name, descriptors)`` of ``arrays`` packed into a fresh
    slab that the future owns (:func:`_owning`) — the one copy per array,
    in the calling thread; views may be lazy memmap slices."""
    slab = Slab.create(max(1, sum(int(a.nbytes) for a in arrays)))
    return _owning(slab, lambda: submit(slab.name, slab.pack(arrays)))


def compress_fields_parallel(
    fields: Sequence[np.ndarray],
    codec_name: str,
    codec_kwargs: Optional[Dict] = None,
    error_bound: Optional[float] = None,
    rel_error_bound: Optional[float] = None,
    processes: Optional[int] = None,
) -> List[bytes]:
    """Compress every field of a dump, one array job per field.

    With ``processes=1`` (or a single field) everything runs in-process,
    which keeps unit tests cheap and avoids fork overhead for tiny inputs.
    """
    args = (codec_name, codec_kwargs or {}, error_bound, rel_error_bound)
    if processes == 1 or len(fields) <= 1:
        return [_compress_field(f, *args) for f in fields]
    with kept_pool(processes) as pool:
        futures = [pool.submit_array(_compress_field, f, *args) for f in fields]
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


@dataclass(eq=False)
class _Job:
    """A submitted job; ``payload`` is its pickled ``(fn, arg)``, re-sent
    verbatim after a death, so a retry runs the same bytes."""

    future: Future
    payload: bytes
    crashes: int = 0


@dataclass(eq=False)
class _Worker:
    """A worker process, the parent's end of its pipe, and its one job."""

    process: Any
    conn: Any
    job: Optional[_Job] = None


class ChunkWorkPool:
    """Process pool that owns its workers and every slab it ships.

    ONE set of workers serves the pool's lifetime — every library call
    of a process (:func:`kept_pool`), every request of a service; the
    first submit starts them.  Submits return ``concurrent.futures``
    futures.  Each worker has a duplex pipe of its own and holds at most
    one job; one manager thread hands out jobs and waits on every pipe
    and process sentinel.  A worker that dies — even halfway through a
    reply — reaches EOF on its own pipe, so the death is charged to the
    job it held and no other (DESIGN.md §12): re-dispatched at its first
    death, failed with :class:`WorkerCrashError` (*poisoned*) at its
    :data:`MAX_JOB_CRASHES`-th.  The worker is replaced when work waits
    for it; no job runs in the calling process.  ``on_event`` hears of
    each ``crash``, ``retry``, ``respawn`` and ``poisoned``.

    A retry re-sends the job's pickled bytes, slab descriptors included,
    so pooled streams are byte-identical to inline ones.  Slabs: DESIGN.md
    §13 and the module docstring.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        on_event: Optional[Callable[[str], None]] = None,
        mp_context=None,
    ) -> None:
        self.processes = processes
        self._on_event = on_event or (lambda _kind: None)
        self._mp_context = mp_context or multiprocessing.get_context()
        #: the manager waits on ``_wake_r`` too; ``_lock`` guards the
        #: queue, ``_closed`` and ``_woken`` (a wake-up is in that pipe)
        self._wake_r, self._wake_w = self._mp_context.Pipe(duplex=False)
        self._lock = threading.Lock()
        self._queue: Deque[_Job] = deque()
        self._closed = self._woken = False
        self._manager: Optional[threading.Thread] = None
        self._workers: List[_Worker] = []  # the manager thread's alone
        #: library calls inside ``with kept_pool(...)`` on this pool right
        #: now (the registry's count, under the registry's lock)
        self.borrowers = 0

    @property
    def workers(self) -> int:
        """Worker processes the pool keeps."""
        return max(1, self.processes or os.cpu_count() or 1)

    @property
    def window_batches(self) -> int:
        """Slab batches that may be in flight at once (the memory bound)."""
        return max(1, WINDOW_PER_WORKER * self.workers // BATCH_CHUNKS)

    @property
    def parallel(self) -> bool:
        """Whether submits actually fan out to worker processes."""
        return self.processes is not None and self.processes > 1

    # -------------------------------------------------------------- dispatch
    def _submit(self, fn: Callable, arg) -> "Future":
        """``fn(arg)`` on a worker; ``fn`` rides the pipe by name."""
        future: Future = Future()
        try:
            job = _Job(future, pickle.dumps((fn, arg)))
        except Exception as exc:  # a payload that does not pickle fails its job
            future.set_exception(exc)
            return future
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a shut-down ChunkWorkPool")
            self._queue.append(job)
            if self._manager is None:
                self._manager = threading.Thread(
                    target=self._manage, name="repro-pool", daemon=True
                )
                self._manager.start()
            self._wake()
        return future

    def _wake(self) -> None:
        """Under the lock: make the manager's wait return."""
        if not self._woken:
            self._woken = True
            self._wake_w.send_bytes(b"")

    def _manage(self) -> None:
        """The manager thread: start and replace workers, hand out jobs,
        collect replies and deaths, and stop them all at shutdown."""
        workers, spawned = self._workers, 0
        try:
            while True:
                with self._lock:
                    if self._closed:
                        return
                    self._woken = False
                    missing = self.workers - len(workers) if self._queue else 0
                for _ in range(missing):
                    try:
                        workers.append(self._spawn())
                    except OSError as exc:  # out of processes or fds
                        if not workers:
                            self._fail_queued(f"no worker could start: {exc}")
                        break
                    spawned += 1
                    if spawned > self.workers:
                        self._on_event("respawn")
                self._hand_out()
                waits: Dict[Any, _Worker] = {}
                for worker in workers:
                    waits[worker.conn] = waits[worker.process.sentinel] = worker
                ready = wait([self._wake_r, *waits])
                if self._wake_r in ready:
                    self._wake_r.recv_bytes()
                for worker in {waits[r] for r in ready if r in waits}:
                    if worker in workers:  # not lost meanwhile
                        self._collect(worker)
        finally:
            # shut down — or stopped by a defect here: either way no
            # worker keeps running and no caller keeps waiting
            with self._lock:
                self._closed = True
                self._queue.extend(w.job for w in workers if w.job)
            for worker in workers:
                self._reap(worker)
            self._fail_queued("job cannot rerun: the pool is shut down")

    def _spawn(self) -> _Worker:
        share_tracker_with_children()
        with _SPAWN_LOCK:
            ours, theirs = self._mp_context.Pipe()
            process = self._mp_context.Process(
                target=_serve, args=(theirs, ours), daemon=True
            )
            process.start()
            theirs.close()
        return _Worker(process, ours)

    def _hand_out(self) -> None:
        """Give each idle worker the next job that is not cancelled."""
        sent = []
        with self._lock:
            for worker in self._workers:
                while worker.job is None and self._queue:
                    job = self._queue.popleft()
                    if not job.future.cancelled():
                        worker.job = job
                        sent.append((worker, job))
        for worker, job in sent:
            try:
                worker.conn.send_bytes(job.payload)
            except OSError:  # it died holding the job
                self._lost(worker)

    def _collect(self, worker: _Worker) -> None:
        """Take ``worker``'s reply, or find it dead: its pipe's only other
        end died with it, so a death reads as EOF — mid-reply too."""
        try:
            reply = worker.conn.recv_bytes()
        except (EOFError, OSError):
            return self._lost(worker)
        job, worker.job = worker.job, None
        assert job is not None  # a worker replies only to the job it holds
        self._hand_out()
        try:
            ok, value = pickle.loads(reply)
        except Exception as exc:  # it arrived whole but does not load here
            return _resolve(job.future, False, exc)
        _resolve(job.future, ok, value)

    def _lost(self, worker: _Worker) -> None:
        """A worker died: reap it, and charge the death to the one job it
        held — re-dispatched at its first death, poisoned at its
        :data:`MAX_JOB_CRASHES`-th — and to no other."""
        self._workers.remove(worker)
        self._reap(worker)
        self._on_event("crash")
        job = worker.job
        if job is None or job.future.cancelled():
            return
        job.crashes += 1
        if job.crashes < MAX_JOB_CRASHES:
            with self._lock:
                self._queue.appendleft(job)
            return self._on_event("retry")
        self._on_event("poisoned")
        _resolve(job.future, False, WorkerCrashError(
            f"job killed its worker {job.crashes} times; it is poisoned"
        ))

    @staticmethod
    def _reap(worker: _Worker) -> None:
        worker.process.kill()
        worker.process.join()
        worker.conn.close()

    def _fail_queued(self, why: str) -> None:
        with self._lock:
            queued, self._queue = self._queue, deque()
        for job in queued:
            _resolve(job.future, False, WorkerCrashError(why))

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
        """Compress each chunk a descriptor locates in the named slab, one
        array job per chunk; the future resolves to the list of streams
        in descriptor order.  The caller made the slab and must keep it
        alive until the future resolves — crash retries re-attach it.
        """
        args = (codec_name, codec_kwargs or {}, error_bound, plan)
        return _gather((
            self._submit(_array_job, ArrayJob(slab_name, where, _compress_chunk, args))
            for where in descriptors
        ), list)

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

        ``stack`` travels once, in a slab the call's future owns; each
        worker takes an interleaved share, and the results come back in
        ``items`` order.  Blocks until all are in; a way out before that
        cancels the shares still pending.
        """
        shares = min(len(items), self.workers)

        def deal(results: list) -> list:
            out: list = [None] * len(items)
            for k, result in enumerate(results):
                out[k::shares] = result
            return out

        future = _on_slab([stack], lambda name, descriptors: _gather((
            self._submit(_array_job, ArrayJob(
                name, descriptors[0], fn, (tuple(items[k::shares]), *spec)
            ))
            for k in range(shares)
        ), deal))
        try:
            return future.result()
        finally:
            future.cancel()

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

        Chunks go out :data:`BATCH_CHUNKS` at a time, each batch in one
        slab (:func:`_on_slab`) for :meth:`submit_compress_batch`; at
        most :attr:`window_batches` batches are in flight, so peak
        memory stays bounded by the window even when ``chunks`` lazily
        slices a memory-mapped array.  ``error_bound`` is absolute: the
        caller resolved a relative one against the full field.  Closing
        the generator early (or a failing job) cancels what is still
        pending, which releases those slabs.
        """
        chunks = iter(chunks)
        pending: Deque[Tuple[tuple, Future]] = deque()

        def drain_oldest() -> Iterator[Tuple[int, bytes]]:
            indices, future = pending.popleft()
            return zip(indices, future.result())

        try:
            for batch in iter(lambda: list(itertools.islice(chunks, BATCH_CHUNKS)), []):
                indices, views = zip(*batch)
                pending.append((indices, _on_slab(views, lambda name, descriptors: (
                    self.submit_compress_batch(
                        codec_name, codec_kwargs, name, descriptors,
                        error_bound, plan,
                    )
                ))))
                while len(pending) >= self.window_batches:
                    yield from drain_oldest()
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
        :meth:`repro.chunked.api.ChunkedFile.submit_read`).  The parts
        are dealt round-robin into one share per worker (times two, for
        stragglers), each an array job on a fresh output slab: the
        worker checks each decoded chunk against its index entry and
        writes ``decoded[src]`` into ``out[dst]``.  The regions of a
        hyperslab plan are disjoint by construction, so concurrent writes
        never overlap.  When every share is in, the array is copied out
        and the slab released; an error or a cancel releases it too and
        cancels the other shares.
        """
        dtype = np.dtype(out_dtype)
        shape = tuple(int(n) for n in out_shape)
        slab = Slab.create(max(1, dtype.itemsize * math.prod(shape)))
        where = (0, shape, dtype.str)
        shares = max(1, min(len(parts), 2 * self.workers))
        return _owning(slab, lambda: _gather((
            self._submit(_array_job, ArrayJob(
                slab.name, where, _decode_parts, (tuple(parts[b::shares]),)
            ))
            for b in range(shares)
        ), lambda _: np.array(slab.view(*where))))  # a copy: the slab goes next

    def shutdown(self) -> None:
        """Idempotent: cancel the queued jobs, stop the workers, and fail
        the jobs they still ran with :class:`WorkerCrashError`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queued, self._queue = self._queue, deque()
            manager = self._manager
            self._wake()
        for job in queued:
            job.future.cancel()
        if manager is not None and manager is not threading.current_thread():
            manager.join()


# ----------------------------------------------------------- the kept pool
_kept: Optional[ChunkWorkPool] = None
_kept_for: tuple = ()  # (worker count, codec names) its workers were forked with
_kept_lock = threading.RLock()
_kept_exit: Optional[Finalize] = None


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
            # terminates and joins its children before atexit would run;
            # priority 100 stops the workers in order before that
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
    has no threads and its workers are not the child's: start empty."""
    global _kept, _kept_lock
    _kept, _kept_lock = None, threading.RLock()


os.register_at_fork(after_in_child=_forget_kept_pool)

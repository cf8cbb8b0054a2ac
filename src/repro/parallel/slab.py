"""Shared-memory slabs: zero-copy array transport for the process pool.

A slab is a named ``multiprocessing.shared_memory`` segment.  The
parent copies arrays into it **once** (:meth:`Slab.pack`), workers
attach by name and operate on ndarray views of it, and the pickled job
carries a descriptor of a few dozen bytes per array
(:data:`SLAB_DESCRIPTOR_LAYOUT` — registered in :mod:`repro.wire_registry`
with the job layouts below, because they cross a process boundary,
exactly like struct formats cross a file boundary).

Ownership contract (DESIGN.md §13): the process that calls
:meth:`Slab.create` owns the segment and is the only one that may
unlink it.  Workers *attach* (:func:`attach_slab`) and never unlink —
see that function's docstring for how the resource-tracker
re-registration of an attach (bpo-39959) stays harmless in the pool's
parent/child topology.  Unlinking while workers still hold mappings is
safe on POSIX (the segment is freed when the last mapping closes),
which is what makes the owner-side cleanup unconditional:

* normal completion — the caller releases in a ``finally``/done-callback;
* worker crash / poison / deadline shed — the outer future resolves
  (exceptionally) and the same callback runs;
* interpreter exit — an ``atexit`` hook releases anything still live.

Every live slab is tracked in a module-level registry so tests (and the
chaos suite) can assert zero leaks; names carry :data:`SLAB_NAME_PREFIX`
so ``/dev/shm`` can be audited from outside the process too.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from collections import namedtuple
from typing import Dict, List, Sequence

import numpy as np

try:  # guarded: some minimal builds ship multiprocessing without _posixshmem
    from multiprocessing import resource_tracker, shared_memory

    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover - exercised only on exotic builds
    HAVE_SHARED_MEMORY = False

__all__ = [
    "ARRAY_JOB_LAYOUT",
    "DECODE_PART_LAYOUT",
    "HAVE_SHARED_MEMORY",
    "SLAB_DESCRIPTOR_LAYOUT",
    "SLAB_NAME_PREFIX",
    "ArrayJob",
    "ChunkDescriptor",
    "DecodePart",
    "Slab",
    "active_slab_names",
    "attach_slab",
    "detach_slab",
    "share_tracker_with_children",
]

#: field order of one chunk descriptor as it crosses the pool boundary:
#: byte offset into the slab, chunk shape, dtype string.  Registered in
#: repro/wire_registry.py (the wire_drift pin holds it to the registry).
SLAB_DESCRIPTOR_LAYOUT = "offset,shape,dtype"

#: field order of one array job, the only job that reaches a slab: the
#: worker runs ``fn(array, *args)`` — ``array`` the chunk descriptor of
#: one array in ``slab``.  It carries a derive's sampled block stack
#: (``map_stack``; ``args`` then starts with the worker's share of bound
#: vectors or interpolator candidates), the field of a compress job sent
#: whole (``CompressJob.submit_whole``), one chunk of a compress batch
#: (``submit_compress_batch``; ``args`` the codec, its kwargs, the bound
#: and the plan) and a read's output slab (``submit_decode_parts``;
#: ``args`` a share of decode parts).  Also registered.
ARRAY_JOB_LAYOUT = "slab,array,fn,args"

#: field order of one hyperslab decode part
#: (``ChunkWorkPool.submit_decode_parts``, built by
#: ``ChunkedFile.submit_read``): the chunk's stored stream,
#: per-axis ``(start, stop)`` bounds in the chunk and in the output, and
#: the chunk's container index entry — its number, start and shape — so
#: the worker checks the decoded shape as ``ChunkedFile.chunk``
#: does.  Also registered.
DECODE_PART_LAYOUT = "blob,src,dst,index,start,shape"

#: every segment this package creates is named with this prefix, so a
#: leak check can glob /dev/shm from outside the owning process
SLAB_NAME_PREFIX = "repro-slab"

ChunkDescriptor = namedtuple("ChunkDescriptor", SLAB_DESCRIPTOR_LAYOUT.split(","))
ArrayJob = namedtuple("ArrayJob", ARRAY_JOB_LAYOUT.split(","))
DecodePart = namedtuple("DecodePart", DECODE_PART_LAYOUT.split(","))

_LIVE: Dict[str, "Slab"] = {}
_LIVE_LOCK = threading.Lock()
_COUNTER = itertools.count()

#: Creating and unlinking a segment takes multiprocessing's
#: resource-tracker lock, and on Python < 3.13 a worker's attach takes it
#: again.  A pool forked from one thread while another is inside
#: create/release would hand its workers a copy of that lock held by a
#: thread that does not exist there, and their first attach would block
#: forever.  Slab holds this lock around both calls and every fork waits
#: for it, so no child is ever born mid-call.
_TRACKER_CALL_LOCK = threading.RLock()
os.register_at_fork(
    before=_TRACKER_CALL_LOCK.acquire,
    after_in_parent=_TRACKER_CALL_LOCK.release,
    after_in_child=_TRACKER_CALL_LOCK.release,
)


def share_tracker_with_children() -> None:
    """Start the resource tracker before workers fork, so their attaches
    (re-registered on Python < 3.13) reach the owner's tracker: a worker
    forked earlier starts its own, which reports the owner's segments as
    leaked and unlinks them when that worker dies."""
    if HAVE_SHARED_MEMORY:
        with _TRACKER_CALL_LOCK:
            resource_tracker.ensure_running()


def _purge_at_exit() -> None:
    """Interpreter-exit safety net: unlink every still-live slab."""
    with _LIVE_LOCK:
        leftover = list(_LIVE.values())
    for slab in leftover:
        slab.release()


atexit.register(_purge_at_exit)


def active_slab_names() -> List[str]:
    """Names of slabs this process owns and has not released (test hook)."""
    with _LIVE_LOCK:
        return sorted(_LIVE)


class Slab:
    """One owned shared-memory segment holding many chunks' bytes."""

    __slots__ = ("_shm", "name", "nbytes", "_released")

    def __init__(self, shm: "shared_memory.SharedMemory") -> None:
        self._shm = shm
        self.name: str = shm.name
        self.nbytes: int = shm.size
        self._released = False

    @classmethod
    def create(cls, nbytes: int) -> "Slab":
        """Allocate and register a new slab of at least ``nbytes`` bytes."""
        if not HAVE_SHARED_MEMORY:  # pragma: no cover - exotic builds
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this build"
            )
        if nbytes <= 0:
            raise ValueError(f"slab size must be positive, got {nbytes}")
        for _ in range(8):
            name = (
                f"{SLAB_NAME_PREFIX}-{os.getpid()}"
                f"-{next(_COUNTER)}-{os.urandom(3).hex()}"
            )
            try:
                with _TRACKER_CALL_LOCK:
                    shm = shared_memory.SharedMemory(
                        name=name, create=True, size=nbytes
                    )
            except FileExistsError:
                continue
            slab = cls(shm)
            with _LIVE_LOCK:
                _LIVE[slab.name] = slab
            return slab
        raise RuntimeError("could not allocate a uniquely named slab")

    def view(
        self,
        offset: int,
        shape: Sequence[int],
        dtype: "np.dtype[np.generic] | str",
    ) -> np.ndarray:
        """Writable ndarray view into the slab (no copy)."""
        return np.ndarray(
            tuple(shape), dtype=np.dtype(dtype), buffer=self._shm.buf,
            offset=offset,
        )

    def pack(self, arrays: Sequence[np.ndarray]) -> List[ChunkDescriptor]:
        """Copy arrays into the slab back to back; return their descriptors.

        This is the ONE copy of the zero-copy path.  Inputs may be lazy
        views (memmap slices); ``np.copyto`` both materializes and
        compacts them into C order.
        """
        descriptors: List[ChunkDescriptor] = []
        offset = 0
        for array in arrays:
            desc = ChunkDescriptor(
                offset=offset,
                shape=tuple(int(n) for n in array.shape),
                dtype=np.dtype(array.dtype).str,
            )
            target = self.view(offset, desc.shape, desc.dtype)
            np.copyto(target, array, casting="no")
            del target
            offset += int(array.nbytes)
            descriptors.append(desc)
        if offset > self.nbytes:
            raise ValueError(
                f"packed {offset} bytes into a {self.nbytes}-byte slab"
            )
        return descriptors

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Unlink + close; idempotent, safe while workers still map it."""
        if self._released:
            return
        self._released = True
        with _LIVE_LOCK:
            _LIVE.pop(self.name, None)
        try:
            with _TRACKER_CALL_LOCK:
                self._shm.unlink()
        except FileNotFoundError:
            pass  # already gone (e.g. purged by a resource tracker)
        try:
            self._shm.close()
        except BufferError:
            # a live ndarray view still pins the mapping; the segment is
            # already unlinked, so process teardown reclaims the memory
            pass


def attach_slab(name: str) -> "shared_memory.SharedMemory":
    """Attach to a slab by name from a worker (never takes ownership).

    On Python < 3.13 an attach re-registers the segment with the
    resource tracker (bpo-39959).  Pool workers are always children of
    the slab's owner and therefore SHARE the owner's tracker process, so
    the re-registration is a set no-op there — the owner's single
    registration stays the crash net for a SIGKILLed owner, and the
    owner's ``unlink`` retires it exactly once.  (Explicitly
    ``unregister``-ing here would strip the *owner's* entry from the
    shared tracker and make the owner's later unlink race a KeyError in
    the tracker process.)  On 3.13+ ``track=False`` skips the worker
    side registration entirely.
    """
    if not HAVE_SHARED_MEMORY:  # pragma: no cover - exotic builds
        raise RuntimeError(
            "multiprocessing.shared_memory is unavailable on this build"
        )
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass  # track= is 3.13+; older attaches tolerate the no-op re-register
    return shared_memory.SharedMemory(name=name)


def detach_slab(shm: "shared_memory.SharedMemory") -> None:
    """Close a worker-side attachment (views must be dropped first)."""
    try:
        shm.close()
    except BufferError:
        # a view outlived the job; the worker process exit reclaims it
        pass

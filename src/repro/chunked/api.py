"""Chunked compression and random access: the layer under ``repro.compress``
with ``chunks=`` / ``file=`` / ``processes=`` and under ``repro.open``.

:class:`CompressJob` tiles a field into blocks (default 256 per axis),
compresses every block independently through any registered codec under
ONE absolute error bound (relative bounds are resolved against the *full*
field's value range, so the container honors exactly the bound the
unchunked path would), and packs them into a multi-chunk container.

:class:`ChunkedFile` is the read side: it parses only the header and the
chunk index, then decodes individual chunks or arbitrary hyperslabs on
demand — reading just the byte ranges of the chunks touched.

Memory behavior: the file-to-file paths (``repro.compress(..., file=)``
with a ``np.memmap`` input, ``ChunkedFile.to_npy``) keep peak memory
bounded by a small multiple of one chunk, which is what lets
``python -m repro`` handle fields larger than RAM.
"""

from __future__ import annotations

import io
import os
import tempfile
import threading
from concurrent.futures import Future
from contextlib import closing
from dataclasses import dataclass, field
from typing import (
    BinaryIO,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.chunked.container import (
    ChunkedWriter,
    ContainerInfo,
    as_fileobj,
    read_container_info,
)
from repro.chunked.tiling import ChunkGrid, Slab, grid_for
from repro.compressors.base import codec_name_for_id, decompress_any, get_compressor
from repro.core.header import VERSION_CHECKSUM, chunk_digest, parse_header
from repro.core.plan_cache import FrozenPlan
from repro.errors import (
    ChunkCorruptionError,
    CompressionError,
    DecompressionError,
    shape_disagreement,
)
from repro.utils import (
    ErrorBound,
    fans_out,
    resolve_error_bound,
    validate_field_lazy,
)

PathLike = Union[str, "os.PathLike[str]"]


def _streaming_value_range(data: np.ndarray, grid: ChunkGrid) -> float:
    """``max - min`` of the whole field, reading one chunk at a time so a
    memory-mapped input stays out of core."""
    lo, hi = np.inf, -np.inf
    for i in grid:
        chunk = np.asarray(data[grid.chunk_slices(i)])
        if not np.all(np.isfinite(chunk)):
            raise CompressionError("data contains non-finite values")
        lo = min(lo, float(chunk.min()))
        hi = max(hi, float(chunk.max()))
    return hi - lo


def _bounds(slices: Sequence[slice]) -> Tuple[Tuple[int, int], ...]:
    """Per-axis ``(start, stop)`` pairs: plain ints pickle smaller than
    slice objects."""
    return tuple((s.start, s.stop) for s in slices)


class CompressJob:
    """One field on its way into a container: admit, derive, execute.

    ``repro.compress`` builds and consumes one per chunked call; the
    service borrows the same object, with its plan cache around
    :meth:`derive` and :meth:`compress_to` run in-process or, with a
    pool, whole on one worker (:meth:`submit_whole`) — so both write the
    same bytes because they run the same code.

    Construction is the **admit** step: the field is validated lazily
    (never copied), and a relative bound is made absolute against the
    *full* field's value range, so every chunk honors exactly the bound
    the unchunked route would.  ``vrange`` keeps that range for
    derivation; ``plan`` starts as the injected plan, if any, and while
    :attr:`wants_plan` it is filled from :meth:`derive` — by the service
    through its cache, else by :meth:`compress_to`.
    """

    def __init__(
        self,
        data: np.ndarray,
        codec: str,
        chunks: Union[int, Sequence[int], None],
        codec_kwargs: Optional[Dict],
        bound: ErrorBound,
        per_chunk_tuning: bool = False,
        plan: Optional[FrozenPlan] = None,
    ) -> None:
        if per_chunk_tuning and plan is not None:
            raise CompressionError(
                "plan= and per_chunk_tuning=True are contradictory: an "
                "injected plan exists to skip per-chunk analysis"
            )
        self.data = validate_field_lazy(data)
        self.codec_name = codec
        self.codec_kwargs = codec_kwargs or {}
        self.codec = get_compressor(codec, **self.codec_kwargs)
        self.grid = grid_for(self.data.shape, chunks)
        self.bound = bound
        self.vrange = (
            _streaming_value_range(self.data, self.grid)
            if bound.is_relative
            else None
        )
        self.eb = resolve_error_bound(
            self.data, data_range=self.vrange, **bound.kwargs()
        )
        self.per_chunk_tuning = per_chunk_tuning
        self.plan = plan

    @property
    def wants_plan(self) -> bool:
        """True while the derive step is owed: the codec has one, no plan
        is in hand, and per-chunk tuning has not opted out of sharing."""
        return (
            self.plan is None
            and not self.per_chunk_tuning
            and self.codec.derives_plan
        )

    def derive(self, pool=None) -> FrozenPlan:
        """The codec's analysis, once, over the full field; ``pool`` (a
        ``ChunkWorkPool``) lends it workers for its independent trials."""
        plan = self.codec.derive_plan(
            self.data, error_bound=self.eb, data_range=self.vrange,
            fan_out=pool.map_stack if pool is not None else None,
        )
        if plan is None:
            raise CompressionError(f"codec {self.codec_name!r} derives no plan")
        return plan

    def submit_whole(
        self, pool
    ) -> "Future[Tuple[Optional[FrozenPlan], bytes]]":
        """This job in one hand-over: a worker rebuilds it from the slab
        copy of its field (the same bound, value range, chunk grid and
        plan in hand, if any) and runs :meth:`compress_to` in-process —
        the serial derive when one is owed, then the bytes this job would
        write.  Resolves to the plan it ran and the container."""
        return pool.submit_array(
            _whole_on_worker, self.data, self.codec_name, self.codec_kwargs,
            self.grid.chunk_shape, self.bound, self.per_chunk_tuning,
            self.plan,
        )

    def compress_chunk(self, view: np.ndarray) -> bytes:
        """Execute on one chunk (``plan=None``: derive on the chunk)."""
        return self.codec.compress_with_plan(
            np.ascontiguousarray(view), self.plan, self.eb
        )

    def write(
        self, fh: BinaryIO, streams: Iterable[Tuple[int, bytes]]
    ) -> ContainerInfo:
        """The container walk: header, every chunk stream, patched index."""
        with ChunkedWriter(
            fh, self.codec.codec_id, self.data.dtype, self.grid, self.eb
        ) as w:
            for i, blob in streams:
                w.write_chunk(i, blob)
            return w.finalize()

    def compress_to(
        self, fh: BinaryIO, processes: Optional[int] = None
    ) -> ContainerInfo:
        """Derive if still owed, execute every chunk and write the
        container to ``fh`` — in-process, or over ``processes`` workers of
        the kept pool, borrowed once for both steps (``processes=`` covers
        the tuning trials as well as the chunks)."""
        # lazy views, not copies: the pool packs each batch straight into
        # a shared-memory slab, so the slab fill is the only copy per chunk
        views = ((i, self.data[self.grid.chunk_slices(i)]) for i in self.grid)
        if not fans_out(processes) or self.grid.n_chunks <= 1:
            if self.wants_plan:
                self.plan = self.derive()
            return self.write(
                fh, ((i, self.compress_chunk(v)) for i, v in views)
            )
        from repro.parallel.executor import kept_pool

        with kept_pool(processes) as pool:
            if self.wants_plan:
                self.plan = self.derive(pool)
            # closing(): a failing writer cancels, and so releases, what is
            # in flight
            with closing(pool.compress_stream(
                views, self.codec_name, self.codec_kwargs, self.eb, self.plan
            )) as streams:
                return self.write(fh, streams)


def _whole_on_worker(
    field: np.ndarray, codec: str, codec_kwargs: Dict,
    chunks: Tuple[int, ...], bound: ErrorBound, per_chunk_tuning: bool,
    plan: Optional[FrozenPlan],
) -> Tuple[Optional[FrozenPlan], bytes]:
    """Pool-worker half of :meth:`CompressJob.submit_whole`."""
    job = CompressJob(
        field, codec, chunks, codec_kwargs, bound, per_chunk_tuning, plan
    )
    buf = io.BytesIO()
    job.compress_to(buf)
    return job.plan, buf.getvalue()


def _write_container(
    job: CompressJob,
    file: Union[PathLike, BinaryIO],
    processes: Optional[int] = None,
) -> ContainerInfo:
    """Run ``job`` into ``file``: an open binary file is written as is; a
    path gets the crash-safe write.

    The crash-safe write streams into a sibling temp file, fsyncs it,
    then atomically renames it over the target.  An interruption at any
    point leaves either the old file or the complete new one — never a
    torn container (the fault suite's rename-failure case pins this).
    """
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    if not own:
        return job.compress_to(file, processes)
    target = os.fsdecode(file)  # type: ignore[arg-type]
    directory = os.path.dirname(os.path.abspath(target))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            info = job.compress_to(fh, processes)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    # Durability of the rename itself: fsync the directory so a crash
    # right after return cannot resurrect the old name (best-effort —
    # not every filesystem lets you open a directory).
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return info
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return info


class ChunkedFile:
    """Random-access reader over a chunked container (bytes, path, or file).

    Parsing touches only the header and the chunk index; chunk payloads
    are read lazily, one byte range per chunk.

    Reads are safe from multiple threads sharing one instance: payload
    reads go through positioned I/O (``os.pread``, which never moves a
    shared file offset) when the source is a real file, and through a
    seek lock otherwise.  Decoding itself is pure numpy on local buffers,
    so concurrent ``chunk`` / ``read`` calls never interleave state.
    A closed reader refuses to read rather than read whatever file has
    since taken its descriptor number.
    """

    def __init__(
        self,
        source: Union[bytes, PathLike, BinaryIO],
        verify: bool = True,
    ) -> None:
        self._file, self._own = as_fileobj(source)
        # verify=True checks each chunk's stored digest on read (v3
        # containers only — v2 has no digests to check); verify=False
        # opts out, e.g. for a repair tool that wants the raw bytes
        self._verify = bool(verify)
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        if hasattr(os, "pread"):
            try:
                self._fd = self._file.fileno()
            except (AttributeError, OSError, ValueError):
                self._fd = None
        try:
            self.info: ContainerInfo = read_container_info(self._file)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------- metadata
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.info.header.shape

    @property
    def dtype(self) -> np.dtype:
        return self.info.header.dtype

    @property
    def error_bound(self) -> float:
        return self.info.header.error_bound

    @property
    def codec_name(self) -> str:
        return codec_name_for_id(self.info.header.codec_id)

    @property
    def grid(self) -> ChunkGrid:
        return self.info.grid

    @property
    def n_chunks(self) -> int:
        return self.info.grid.n_chunks

    def describe(self) -> Dict:
        """Summary dict (used by ``python -m repro info``)."""
        sizes = [e.nbytes for e in self.info.entries]
        raw = int(np.prod(self.shape)) * self.dtype.itemsize
        return {
            "format": "chunked container (RPZ1 v%d)" % self.info.header.version,
            "codec": self.codec_name,
            "dtype": str(self.dtype),
            "shape": self.shape,
            "error_bound": self.error_bound,
            "chunk_shape": self.grid.chunk_shape,
            "grid_shape": self.grid.grid_shape,
            "n_chunks": self.n_chunks,
            "compressed_bytes": self.info.total_bytes,
            "raw_bytes": raw,
            "compression_ratio": raw / max(1, self.info.total_bytes),
            "chunk_bytes_min": min(sizes),
            "chunk_bytes_mean": float(np.mean(sizes)),
            "chunk_bytes_max": max(sizes),
        }

    # ---------------------------------------------------------- chunk reads
    def chunk_slices(self, index: int) -> Tuple[slice, ...]:
        """Region of the full array covered by chunk ``index``."""
        return self.info.entries[index].slices

    def _read_at(self, offset: int, nbytes: int) -> bytes:
        """Positioned read that never races another thread's read.

        ``os.pread`` carries its own offset, so concurrent readers on the
        same fd cannot corrupt each other; sources without a real fd
        (``BytesIO``) fall back to seek+read under the instance lock.
        Short reads are looped (Linux caps one ``pread`` at ~2 GiB), so a
        partial return only ever means true EOF.
        """
        if self._fd is not None:
            parts = []
            remaining = nbytes
            while remaining:
                part = os.pread(self._fd, remaining, offset)
                if not part:
                    break
                parts.append(part)
                offset += len(part)
                remaining -= len(part)
            return parts[0] if len(parts) == 1 else b"".join(parts)
        with self._lock:
            self._file.seek(offset)
            return self._file.read(nbytes)

    def chunk_bytes(self, index: int) -> bytes:
        """Compressed stream of one chunk (reads only its byte range)."""
        entry = self.info.entries[index]
        start = self.info.data_start + entry.offset
        # the index is not checksummed: a range past the stored bytes is a
        # truncated chunk, not a read to attempt
        blob = (
            self._read_at(start, entry.nbytes)
            if start + entry.nbytes <= self.info.data_end
            else b""
        )
        if len(blob) != entry.nbytes:
            raise DecompressionError(
                f"chunk {index} truncated: expected {entry.nbytes} bytes, "
                f"got {len(blob)}"
            )
        if (
            self._verify
            and entry.checksum is not None
            and chunk_digest(blob) != entry.checksum
        ):
            raise ChunkCorruptionError(index, entry.start, entry.shape)
        return blob

    def chunk(self, index: int) -> np.ndarray:
        """Decode one chunk, whose stored bytes must describe the shape
        its index entry gives it."""
        out = decompress_any(self.chunk_bytes(index))
        entry = self.info.entries[index]
        if out.shape != entry.shape:
            raise ChunkCorruptionError(
                index, entry.start, entry.shape, shape_disagreement(out.shape)
            )
        return out

    # ----------------------------------------------------------- hyperslabs
    def slab_plan(
        self, slab: Slab
    ) -> Tuple[
        Tuple[slice, ...],
        List[Tuple[int, Tuple[slice, ...], Tuple[slice, ...]]],
    ]:
        """Decode plan for a hyperslab: which chunks, and where they land.

        Returns ``(normalized_slab, parts)`` where each part is
        ``(chunk_index, src_slices, dst_slices)`` — the intersection of
        the chunk's region with the slab, in chunk-local and slab-local
        frames.  :meth:`read` executes this plan serially and
        :meth:`submit_read` on a pool's workers, so both paths assemble
        bit-identical outputs by construction.
        """
        grid = self.grid
        slab = grid.normalize_slab(slab)
        parts = []
        for i in grid.chunks_for_slab(slab):
            entry = self.info.entries[i]
            src, dst = [], []
            for cs, ce, sl in zip(entry.start, entry.shape, slab):
                lo = max(cs, sl.start)
                hi = min(cs + ce, sl.stop)
                src.append(slice(lo - cs, hi - cs))
                dst.append(slice(lo - sl.start, hi - sl.start))
            parts.append((i, tuple(src), tuple(dst)))
        return slab, parts

    def submit_read(self, slab: Slab, pool) -> "Future[np.ndarray]":
        """:meth:`read` on ``pool``'s workers (a ``ChunkWorkPool``).

        The stored bytes of every chunk the slab touches are read here;
        each chunk's part (``slab.DECODE_PART_LAYOUT``: its bytes, its
        :meth:`slab_plan` regions as per-axis ``(start, stop)`` pairs, its
        index entry) goes to a worker, which checks the decoded shape as
        :meth:`chunk` does and writes its region into a shared output
        slab.  Resolves to the array :meth:`read` returns."""
        slab, parts = self.slab_plan(slab)
        entries = self.info.entries
        return pool.submit_decode_parts(
            [
                (self.chunk_bytes(i), _bounds(src), _bounds(dst), i,
                 entries[i].start, entries[i].shape)
                for i, src, dst in parts
            ],
            tuple(s.stop - s.start for s in slab), self.dtype,
        )

    def read(
        self, slab: Slab, processes: Optional[int] = None
    ) -> np.ndarray:
        """Extract an arbitrary hyperslab, decoding only intersecting chunks.

        ``processes > 1`` is :meth:`submit_read` on the kept pool (one
        worker write per chunk into a shared-memory output slab, no result
        pickling); the default decodes in-process.  Both paths execute the
        same :meth:`slab_plan`, so outputs are bit-identical by
        construction.
        """
        if fans_out(processes):
            from repro.parallel.executor import kept_pool

            with kept_pool(processes) as pool:
                return self.submit_read(slab, pool).result()
        slab, parts = self.slab_plan(slab)
        out = np.empty(
            tuple(s.stop - s.start for s in slab), dtype=self.dtype
        )
        for i, src, dst in parts:
            out[dst] = self.chunk(i)[src]
        return out

    def to_array(self, processes: Optional[int] = None) -> np.ndarray:
        """Decode the whole field: a :meth:`read` of the full slab (a
        one-chunk container decodes in-process whatever ``processes``)."""
        return self.read(
            tuple(slice(0, n) for n in self.shape),
            processes=processes if self.n_chunks > 1 else None,
        )

    def to_npy(self, path: PathLike) -> None:
        """Stream-decode into a ``.npy`` file, one chunk resident at a time."""
        out = np.lib.format.open_memmap(
            path, mode="w+", dtype=self.dtype, shape=self.shape
        )
        try:
            for i in self.grid:
                out[self.chunk_slices(i)] = self.chunk(i)
            out.flush()
        finally:
            del out

    # -------------------------------------------------------------- plumbing
    def close(self) -> None:
        # the descriptor number is free for the next open() once the file
        # closes: a later read falls back to the closed file and raises
        self._fd = None
        if self._own:
            self._file.close()

    def __enter__(self) -> "ChunkedFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ------------------------------------------------------------- verification


@dataclass(frozen=True)
class ChunkFault:
    """One damaged chunk found by :func:`verify_container`."""

    index: int
    start: Tuple[int, ...]
    shape: Tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of walking a container's header and every chunk.

    ``checksums`` records whether content digests were available (v3) or
    only structural checks ran (v2: byte-range sanity plus each chunk's
    own stream header must parse and agree with the index entry).
    """

    version: int
    n_chunks: int
    checksums: bool
    faults: List[ChunkFault] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.faults


def verify_container(source: Union[bytes, PathLike, BinaryIO]) -> VerifyReport:
    """Verify a container end to end without decoding any chunk payloads.

    A corrupt fixed header (bad magic, truncated dims, failed v3 header
    checksum) raises :class:`DecompressionError` outright — there is no
    per-chunk report to give when the index itself cannot be trusted.
    Per-chunk damage is *collected*, not raised, so one bad chunk does
    not hide the rest.
    """
    faults: List[ChunkFault] = []
    # verify=False: this walk does its own checking and must see the raw
    # bytes of damaged chunks instead of dying on the first bad digest
    with ChunkedFile(source, verify=False) as f:
        info = f.info
        checksums = info.header.version >= VERSION_CHECKSUM
        for i, entry in enumerate(info.entries):
            try:
                blob = f.chunk_bytes(i)
            except DecompressionError as exc:
                faults.append(ChunkFault(i, entry.start, entry.shape, str(exc)))
                continue
            if checksums:
                if chunk_digest(blob) != entry.checksum:
                    faults.append(
                        ChunkFault(
                            i, entry.start, entry.shape, "checksum mismatch"
                        )
                    )
                continue
            # v2: no digest column — validate what the format does pin
            # down: the chunk's own stream header must parse and describe
            # the shape the index claims
            try:
                head, _ = parse_header(blob)
            except DecompressionError as exc:
                faults.append(
                    ChunkFault(
                        i, entry.start, entry.shape, f"chunk header: {exc}"
                    )
                )
                continue
            if tuple(head.shape) != tuple(entry.shape):
                faults.append(
                    ChunkFault(
                        i, entry.start, entry.shape, shape_disagreement(head.shape)
                    )
                )
        return VerifyReport(
            version=info.header.version,
            n_chunks=len(info.entries),
            checksums=checksums,
            faults=faults,
        )

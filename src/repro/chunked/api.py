"""High-level chunked compression API (out-of-core, random access).

:func:`compress_chunked` tiles a field into blocks (default 256 per axis),
compresses every block independently through any registered codec under
ONE absolute error bound (relative bounds are resolved against the *full*
field's value range, so the container honors exactly the bound the
unchunked path would), and packs them into a multi-chunk container.

:class:`ChunkedFile` is the read side: it parses only the header and the
chunk index, then decodes individual chunks or arbitrary hyperslabs on
demand — reading just the byte ranges of the chunks touched.

Memory behavior: the file-to-file paths (``compress_chunked_to_file`` with
a ``np.memmap`` input, ``ChunkedFile.to_npy``) keep peak memory bounded by
a small multiple of one chunk, which is what lets ``python -m repro``
handle fields larger than RAM.
"""

from __future__ import annotations

import os
import tempfile
import threading
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
)
from repro.utils import (
    BoundLike,
    ErrorBound,
    normalize_bound,
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


class CompressJob:
    """One field on its way into a container: admit, derive, execute.

    :func:`compress_chunked_to_file` builds and consumes one per call; the
    service borrows the same object, with its plan cache around
    :meth:`derive` and its pool in place of :meth:`compress_to` — both
    write the same bytes because they run the same code.

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
        if processes in (None, 0, 1) or self.grid.n_chunks <= 1:
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


def compress_chunked_to_file(
    data: np.ndarray,
    file: Union[PathLike, BinaryIO],
    codec: str = "qoz",
    chunks: Union[int, Sequence[int], None] = None,
    codec_kwargs: Optional[Dict] = None,
    error_bound: Optional[float] = None,
    rel_error_bound: Optional[float] = None,
    processes: Optional[int] = None,
    per_chunk_tuning: bool = False,
    plan=None,
    bound: Optional[BoundLike] = None,
) -> ContainerInfo:
    """Tile ``data``, compress every chunk, stream a container to ``file``.

    ``data`` may be any array-like with numpy indexing — in particular a
    ``np.load(..., mmap_mode='r')`` memmap, in which case only one chunk
    (per worker) is ever resident.  ``processes=None`` (the default)
    compresses in-process; with ``processes > 1``, chunk jobs fan out over
    the process's kept worker pool (forked by the first such call, stopped
    by :func:`repro.parallel.shutdown_pool` or at exit) in bounded batches,
    so memory stays proportional to the batch, not the field.

    When the codec supports plan derivation (QoZ, SZ3), its sampling /
    selection / tuning runs **once** over the full field and the frozen
    plan is broadcast to every chunk — the dominant cost of chunked QoZ
    compression, otherwise re-paid per chunk, is amortized to one payment.
    A call that fans out lends the same pool to that derivation: QoZ's
    independent tuning trials run on the workers (same plan, same bytes).
    ``per_chunk_tuning=True`` opts back into independent per-chunk
    analysis: marginally better per-chunk ratios (each chunk gets its own
    (alpha, beta) and interpolators) at a many-fold compression-time cost.
    The error bound is enforced point-wise by the quantizer either way.

    ``plan`` injects a previously derived
    :class:`~repro.core.plan_cache.FrozenPlan`, skipping derivation here
    entirely; it must come from the same codec or the first chunk
    rejects it with :class:`~repro.errors.CompressionError`.

    The bound may be given as the unified ``bound=``
    (:class:`~repro.utils.ErrorBound` or any spelling its parser
    accepts) or as exactly one of the legacy kwarg pair.
    """
    job = CompressJob(
        data,
        codec,
        chunks,
        codec_kwargs,
        normalize_bound(bound, error_bound, rel_error_bound),
        per_chunk_tuning,
        plan,
    )
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    if not own:
        return job.compress_to(file, processes)

    # Crash-safe path write: stream into a sibling temp file, fsync it,
    # then atomically rename over the target.  An interruption at any
    # point leaves either the old file or the complete new one — never a
    # torn container (the fault suite's rename-failure case pins this).
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


def compress_chunked(
    data: np.ndarray,
    codec: str = "qoz",
    chunks: Union[int, Sequence[int], None] = None,
    codec_kwargs: Optional[Dict] = None,
    error_bound: Optional[float] = None,
    rel_error_bound: Optional[float] = None,
    processes: Optional[int] = None,
    per_chunk_tuning: bool = False,
    plan=None,
    bound: Optional[BoundLike] = None,
) -> bytes:
    """In-memory variant of :func:`compress_chunked_to_file`."""
    import io

    buf = io.BytesIO()
    compress_chunked_to_file(
        data,
        buf,
        codec=codec,
        chunks=chunks,
        codec_kwargs=codec_kwargs,
        error_bound=error_bound,
        rel_error_bound=rel_error_bound,
        processes=processes,
        per_chunk_tuning=per_chunk_tuning,
        plan=plan,
        bound=bound,
    )
    return buf.getvalue()


class ChunkedFile:
    """Random-access reader over a chunked container (bytes, path, or file).

    Parsing touches only the header and the chunk index; chunk payloads
    are read lazily, one byte range per chunk.

    Reads are safe from multiple threads sharing one instance: payload
    reads go through positioned I/O (``os.pread``, which never moves a
    shared file offset) when the source is a real file, and through a
    seek lock otherwise.  Decoding itself is pure numpy on local buffers,
    so concurrent ``chunk`` / ``read`` calls never interleave state —
    the service layer decodes chunks of one container from many worker
    threads at once.
    """

    def __init__(
        self,
        source: Union[bytes, PathLike, BinaryIO],
        verify: bool = True,
    ) -> None:
        if isinstance(source, str) or hasattr(source, "__fspath__"):
            self._file: BinaryIO = open(source, "rb")
            self._own = True
        else:
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
        blob = self._read_at(self.info.data_start + entry.offset, entry.nbytes)
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
        """Decode one chunk."""
        return decompress_any(self.chunk_bytes(index))

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
        frames.  :meth:`read` executes this plan serially; the service
        layer executes the same plan with concurrent chunk decodes, so
        both paths assemble bit-identical outputs by construction.
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

    def slab_descriptors(
        self, slab: Slab
    ) -> Tuple[
        Tuple[int, ...],
        List[Tuple[int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]],
    ]:
        """Descriptor form of :meth:`slab_plan`: pickle-ready int bounds.

        Returns ``(out_shape, parts)`` where each part is
        ``(chunk_index, src_bounds, dst_bounds)`` with per-axis
        ``(start, stop)`` pairs — exactly the layout the slab-batched
        decode job ships across the pool boundary
        (:meth:`repro.parallel.executor.ChunkWorkPool.submit_decode_parts`).
        """
        slab, parts = self.slab_plan(slab)
        shape = tuple(s.stop - s.start for s in slab)
        bounds = [
            (
                i,
                tuple((s.start, s.stop) for s in src),
                tuple((d.start, d.stop) for d in dst),
            )
            for i, src, dst in parts
        ]
        return shape, bounds

    def read(
        self, slab: Slab, processes: Optional[int] = None
    ) -> np.ndarray:
        """Extract an arbitrary hyperslab, decoding only intersecting chunks.

        ``processes > 1`` fans the chunk decodes out over the kept pool
        writing into a shared-memory output slab (one worker write per
        chunk, no result pickling); the default decodes in-process.
        Both paths execute the same :meth:`slab_plan`, so outputs are
        bit-identical by construction.
        """
        if processes not in (None, 0, 1):
            shape, bounds = self.slab_descriptors(slab)
            if len(bounds) > 1:
                from repro.parallel.executor import kept_pool

                jobs = [
                    (self.chunk_bytes(i), src, dst) for i, src, dst in bounds
                ]
                with kept_pool(processes) as pool:
                    return pool.submit_decode_parts(
                        jobs, shape, self.dtype
                    ).result()
        slab, parts = self.slab_plan(slab)
        out = np.empty(
            tuple(s.stop - s.start for s in slab), dtype=self.dtype
        )
        for i, src, dst in parts:
            out[dst] = self.chunk(i)[src]
        return out

    def to_array(self, processes: Optional[int] = None) -> np.ndarray:
        """Decode the whole field."""
        if processes not in (None, 0, 1) and self.n_chunks > 1:
            return self.read(
                tuple(slice(0, n) for n in self.shape), processes=processes
            )
        out = np.empty(self.shape, dtype=self.dtype)
        for i in self.grid:
            out[self.chunk_slices(i)] = self.chunk(i)
        return out

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
        if self._own:
            self._file.close()

    def __enter__(self) -> "ChunkedFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def decompress_chunked(
    source: Union[bytes, PathLike, BinaryIO],
    processes: Optional[int] = None,
) -> np.ndarray:
    """Decode a whole chunked container back into an array."""
    with ChunkedFile(source) as f:
        return f.to_array(processes=processes)


def decompress_chunk(
    source: Union[bytes, PathLike, BinaryIO], index: int
) -> Tuple[Tuple[slice, ...], np.ndarray]:
    """Decode one chunk; returns ``(slices_in_full_array, chunk_array)``."""
    with ChunkedFile(source) as f:
        return f.chunk_slices(index), f.chunk(index)


def read_hyperslab(
    source: Union[bytes, PathLike, BinaryIO], slab: Slab
) -> np.ndarray:
    """Decode an arbitrary hyperslab from a chunked container."""
    with ChunkedFile(source) as f:
        return f.read(slab)


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
                        i,
                        entry.start,
                        entry.shape,
                        f"chunk header shape {tuple(head.shape)} disagrees "
                        f"with index entry",
                    )
                )
        return VerifyReport(
            version=info.header.version,
            n_chunks=len(info.entries),
            checksums=checksums,
            faults=faults,
        )

"""The public facade: ``repro.compress`` / ``repro.decompress`` / ``repro.open``.

These three functions are the one way in above the codec classes: the
chunked container layer (:mod:`repro.chunked`) and the service clients
sit under them.  The routing follows **from arguments alone** (DESIGN.md
§13 states the rules normatively):

* ``client=`` targets a running service (in-process or remote) — the
  request executes there, nothing else about the call changes;
* ``file=``, ``chunks=``, ``chunked=True``, ``processes > 1``,
  ``per_chunk_tuning=True`` or an injected ``plan=`` select the chunked
  container path;
* otherwise the call is a plain single-array codec round-trip.

An error bound has one spelling, ``bound=``: an
:class:`~repro.utils.ErrorBound`, ``"abs:1e-3"``, ``("rel", 1e-4)`` or a
bare number (absolute), all parsed by :meth:`ErrorBound.parse`.
"""

from __future__ import annotations

import io
import os
from typing import Any, BinaryIO, Dict, Optional, Sequence, Union

import numpy as np

from repro.chunked.api import (
    ChunkedFile,
    CompressJob,
    PathLike,
    _write_container,
)
from repro.chunked.container import (
    ContainerInfo,
    as_fileobj,
    parse_header_from,
)
from repro.compressors.base import decompress_any, get_compressor
from repro.errors import CompressionError
from repro.utils import BoundLike, ErrorBound, fans_out

__all__ = ["compress", "decompress", "open"]


def compress(
    data: np.ndarray,
    codec: str = "qoz",
    bound: Optional[BoundLike] = None,
    chunks: Union[int, Sequence[int], None] = None,
    chunked: Optional[bool] = None,
    file: Union[PathLike, BinaryIO, None] = None,
    codec_kwargs: Optional[Dict] = None,
    processes: Optional[int] = None,
    per_chunk_tuning: bool = False,
    plan: Optional[object] = None,
    client: Optional[object] = None,
    **service_kwargs: Any,
) -> Union[bytes, ContainerInfo]:
    """Compress ``data`` through whichever path the arguments select.

    Returns the compressed stream as ``bytes`` — except with ``file=``,
    which streams a container to an open binary file or, crash-safe
    (temp file, fsync, rename), to a path, and returns its
    :class:`~repro.chunked.container.ContainerInfo`.  ``chunked=False``
    forces the single-array path and refuses chunked-only arguments
    instead of silently ignoring them.  ``service_kwargs`` (priority,
    client_id, deadline_ms, family) pass through to a ``client=`` call
    and are rejected elsewhere.

    On the chunked path ``data`` may be any array-like with numpy
    indexing — a ``np.load(..., mmap_mode='r')`` memmap stays out of
    core.  A codec with a derivation (QoZ, SZ3) runs its sampling /
    selection / tuning **once** over the full field and every chunk
    executes the frozen plan; ``processes > 1`` fans the chunks, and
    QoZ's independent tuning trials, over the process's kept worker
    pool (same plan, same bytes).  ``per_chunk_tuning=True`` re-runs the
    analysis on every chunk instead; ``plan=`` injects a previously
    derived :class:`~repro.core.plan_cache.FrozenPlan` from the same
    codec and skips derivation entirely.
    """
    spec = ErrorBound.parse(bound)

    wants_chunked = (
        file is not None
        or chunks is not None
        or per_chunk_tuning
        or plan is not None
        or fans_out(processes)
    )
    if chunked is False and wants_chunked:
        raise CompressionError(
            "chunked=False contradicts file=/chunks=/processes>1/"
            "per_chunk_tuning/plan= — those exist only on the chunked path"
        )

    if client is not None:
        if file is not None or plan is not None:
            raise CompressionError(
                "file= and plan= do not travel over a service client; "
                "compress locally or write the returned bytes yourself"
            )
        if fans_out(processes):
            raise CompressionError(
                "processes= is a server-side setting; configure the "
                "service, not the call"
            )
        return client.compress(  # type: ignore[attr-defined]  # duck-typed client
            data,
            codec=codec,
            bound=spec,
            chunks=chunks,
            codec_kwargs=codec_kwargs,
            per_chunk_tuning=per_chunk_tuning,
            **service_kwargs,
        )

    if service_kwargs:
        raise CompressionError(
            f"{sorted(service_kwargs)} are service-call options; "
            "they need client="
        )

    if chunked or wants_chunked:
        job = CompressJob(
            data, codec, chunks, codec_kwargs, spec, per_chunk_tuning, plan
        )
        if file is not None:
            return _write_container(job, file, processes)
        buf = io.BytesIO()
        job.compress_to(buf, processes)
        return buf.getvalue()

    codec_inst = get_compressor(codec, **(codec_kwargs or {}))
    return codec_inst.compress(data, **spec.kwargs())


def _as_bytes(
    source: Union[bytes, bytearray, memoryview, PathLike, BinaryIO]
) -> bytes:
    """What a client ships: the bytes the local route would have opened."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        return bytes(source)
    if isinstance(source, (str, os.PathLike)):
        with io.open(source, "rb") as fh:
            return fh.read()
    return source.read()


def decompress(
    source: Union[bytes, bytearray, memoryview, PathLike, BinaryIO],
    processes: Optional[int] = None,
    client: Optional[object] = None,
    **service_kwargs: Any,
) -> np.ndarray:
    """Decode any stream this package produces back into an array.

    ``client=`` executes on a service (a path or open file is read here
    and its bytes shipped).  Locally, every source kind — bytes, a path,
    an open binary file — has its stream header read once, then a chunked
    container decodes through :meth:`ChunkedFile.to_array` (honoring
    ``processes=``) and a plain stream through its codec's decoder.
    """
    if client is not None:
        if fans_out(processes):
            raise CompressionError(
                "processes= is a server-side setting; configure the "
                "service, not the call"
            )
        return client.decompress(  # type: ignore[attr-defined]  # duck-typed client
            _as_bytes(source), **service_kwargs
        )
    if service_kwargs:
        raise CompressionError(
            f"{sorted(service_kwargs)} are service-call options; "
            "they need client="
        )
    fh, own = as_fileobj(source)
    try:
        header, _ = parse_header_from(fh)
        if header.is_chunked:
            with ChunkedFile(fh) as f:
                return f.to_array(processes)
        fh.seek(0)
        return decompress_any(fh.read())
    finally:
        if own:
            fh.close()


def open(
    source: Union[bytes, PathLike, BinaryIO], verify: bool = True
) -> ChunkedFile:
    """Open a chunked container for random access (h5py-style).

    Returns a :class:`~repro.chunked.api.ChunkedFile`; use it as a
    context manager.  ``verify=False`` skips per-chunk digest checks on
    read (e.g. for repair tooling that wants the raw bytes).
    """
    return ChunkedFile(source, verify=verify)

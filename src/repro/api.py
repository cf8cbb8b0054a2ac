"""The public facade: ``repro.compress`` / ``repro.decompress`` / ``repro.open``.

Three entry idioms accreted around the same concepts — single-array
codec classes, the :mod:`repro.chunked` functions, and the service
clients — each with its own kwarg spellings.  This module is the one
surface that routes between them **from arguments alone** (DESIGN.md
§13 states the routing rules normatively):

* ``client=`` targets a running service (in-process or remote) — the
  request executes there, nothing else about the call changes;
* ``file=``, ``chunks=``, ``chunked=True``, ``processes > 1``,
  ``per_chunk_tuning=True`` or an injected ``plan=`` select the chunked
  container path;
* otherwise the call is a plain single-array codec round-trip.

Error bounds use the unified spelling (``bound=`` — an
:class:`~repro.utils.ErrorBound`, ``"abs:1e-3"``, ``("rel", 1e-4)`` or
a bare number) or exactly one of the legacy kwargs; every spelling
funnels through :func:`repro.utils.normalize_bound`, so the emitted
stream never depends on which one was used.

The package-qualified layer functions (``repro.chunked.compress_chunked``
and friends) remain canonical API for code that wants the specific
layer.
"""

from __future__ import annotations

import io
import os
from typing import Any, BinaryIO, Dict, Optional, Sequence, Union

import numpy as np

from repro.chunked.api import (
    ChunkedFile,
    PathLike,
    compress_chunked,
    compress_chunked_to_file,
    decompress_chunked,
)
from repro.chunked.container import ContainerInfo
from repro.compressors.base import decompress_any, get_compressor
from repro.core.header import parse_header
from repro.errors import CompressionError
from repro.utils import BoundLike, normalize_bound

__all__ = ["compress", "decompress", "open"]


def compress(
    data: np.ndarray,
    codec: str = "qoz",
    bound: Optional[BoundLike] = None,
    error_bound: Optional[float] = None,
    rel_error_bound: Optional[float] = None,
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
    which streams a container to disk and returns its
    :class:`~repro.chunked.container.ContainerInfo`.  ``chunked=False``
    forces the single-array path and refuses chunked-only arguments
    instead of silently ignoring them.  ``service_kwargs`` (priority,
    client_id, deadline_ms, family) pass through to a ``client=`` call
    and are rejected elsewhere.
    """
    spec = normalize_bound(bound, error_bound, rel_error_bound)

    wants_chunked = (
        file is not None
        or chunks is not None
        or per_chunk_tuning
        or plan is not None
        or (processes is not None and processes > 1)
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
        if processes not in (None, 0, 1):
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
        route: Dict[str, Any] = dict(
            codec=codec,
            chunks=chunks,
            codec_kwargs=codec_kwargs,
            processes=processes,
            per_chunk_tuning=per_chunk_tuning,
            plan=plan,
            bound=spec,
        )
        if file is not None:
            return compress_chunked_to_file(data, file, **route)
        return compress_chunked(data, **route)

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

    Routing mirrors :func:`compress`: ``client=`` executes on a
    service (a path or open file is read here and its bytes shipped); a
    path (or open file) is read as a chunked container; raw
    bytes are sniffed by their stream header — chunked containers take
    the container path (honoring ``processes=``), single-array streams
    take their codec's decoder.
    """
    if client is not None:
        if processes not in (None, 0, 1):
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
    if isinstance(source, (bytes, bytearray, memoryview)):
        blob = bytes(source)
        header, _ = parse_header(blob[:64])
        if header.is_chunked:
            return decompress_chunked(blob, processes=processes)
        return decompress_any(blob)
    return decompress_chunked(source, processes=processes)


def open(
    source: Union[bytes, PathLike, BinaryIO], verify: bool = True
) -> ChunkedFile:
    """Open a chunked container for random access (h5py-style).

    Returns a :class:`~repro.chunked.api.ChunkedFile`; use it as a
    context manager.  ``verify=False`` skips per-chunk digest checks on
    read (e.g. for repair tooling that wants the raw bytes).
    """
    return ChunkedFile(source, verify=verify)

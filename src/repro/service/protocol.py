"""Wire protocol of the compression service (length-prefixed binary).

Every message — request or response — is one *frame*::

    u32 little-endian body length | body

The body starts with ``u8 protocol version`` + ``u8 opcode/status`` and
continues with opcode-specific fields built from four primitives: scalars
(``struct`` little-endian), short strings (u16 length + UTF-8), payloads
(u64 length + raw bytes), and typed key/value maps (for codec kwargs and
stats).  Arrays travel as (dtype string, shape, C-order raw bytes).  The
format is deliberately stdlib-only — no msgpack/pickle — and versioned,
so a client/server mismatch fails with a clean :class:`ProtocolError`
instead of a silent misparse.

Requests decode into the small dataclasses at the bottom; those same
dataclasses are the in-process API (``ServiceClient`` hands them straight
to the scheduler without serializing), which keeps the socket path and
the test path running identical handler code.

Frame bodies are capped (:data:`MAX_FRAME`) so a forged length prefix
cannot size an allocation beyond the declared limit — the same
decode-side discipline the codec streams adopted in PR 2.

Protocol v2 (this version) extends v1 with admission metadata and richer
backpressure/observability frames:

* every request body carries a *meta kv* immediately after the
  version/opcode bytes — ``priority`` (``interactive``/``batch``),
  ``client_id`` (per-client quota key), ``attempt`` (0 on the first
  send; a retrying client increments it so the server can count retried
  admissions) and ``deadline_ms``.  Unknown meta keys are ignored, so
  the vocabulary grows and shrinks without a version bump (the history
  is in :mod:`repro.wire_registry`).  Only non-default entries are
  written, so the common case costs two bytes;
* RETRY responses carry a ``reason`` string after the ``retry_after``
  hint (``queue-full`` / ``client-quota``), so clients and dashboards
  can tell *why* they were shed;
* STATS responses are a flat typed kv whose layout is versioned by its
  own ``stats_version`` key (see :mod:`repro.service.admission`) —
  independent of the protocol version, so stats keys can evolve without
  a wire break.
"""

from __future__ import annotations

import asyncio
import math
import socket
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    CompressionError,
    ProtocolError,
    ServiceConnectionError,
)
from repro.utils import BoundLike, ErrorBound

PROTOCOL_VERSION = 2

#: admission priority classes, in scheduling order (first = served first)
PRIORITIES = ("interactive", "batch")

#: hard ceiling on one frame's body (1 GiB) — service requests carry at
#: most one field plus small metadata; bigger fields belong in the
#: out-of-core CLI path, not a socket round-trip
MAX_FRAME = 1 << 30

# request opcodes
OP_PING = 1
OP_COMPRESS = 2
OP_DECOMPRESS = 3
OP_READ_SLAB = 4
OP_STATS = 5

# response statuses
ST_OK = 0
ST_ERROR = 1
ST_RETRY = 2

# slab dimension flags
_SLAB_HAS_START = 1
_SLAB_HAS_STOP = 2

_KV_TAGS = {int: b"i", float: b"f", bool: b"b", str: b"s"}


# --------------------------------------------------------------------------
# primitives
# --------------------------------------------------------------------------

class _Writer:
    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u8(self, v: int) -> None:
        self._parts.append(struct.pack("<B", v))

    def u16(self, v: int) -> None:
        self._parts.append(struct.pack("<H", v))

    def u32(self, v: int) -> None:
        self._parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self._parts.append(struct.pack("<Q", v))

    def i64(self, v: int) -> None:
        self._parts.append(struct.pack("<q", v))

    def f64(self, v: float) -> None:
        self._parts.append(struct.pack("<d", v))

    def string(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ProtocolError(f"string field too long ({len(raw)} bytes)")
        self.u16(len(raw))
        self._parts.append(raw)

    def blob(self, b: bytes) -> None:
        self.u64(len(b))
        self._parts.append(bytes(b))

    def kv(self, mapping: Optional[Dict]) -> None:
        """Typed key/value map (int/float/bool/str values only)."""
        items = sorted((mapping or {}).items())
        self.u16(len(items))
        for key, value in items:
            tag = _KV_TAGS.get(type(value))
            if tag is None:
                raise ProtocolError(
                    f"kwarg {key!r} has unsupported type {type(value).__name__}"
                    " (int/float/bool/str only)"
                )
            self.string(str(key))
            self._parts.append(tag)
            if tag == b"i":
                self.i64(value)
            elif tag == b"f":
                self.f64(value)
            elif tag == b"b":
                self.u8(1 if value else 0)
            else:
                self.string(value)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    def __init__(self, buf: bytes) -> None:
        self._buf = buf
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._buf):
            raise ProtocolError("frame truncated mid-field")
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def string(self) -> str:
        raw = self._take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("string field is not UTF-8") from None

    def blob(self) -> bytes:
        n = self.u64()
        if n > MAX_FRAME:
            raise ProtocolError(f"blob length {n} exceeds frame cap")
        return self._take(n)

    def kv(self) -> Dict:
        out: Dict = {}
        for _ in range(self.u16()):
            key = self.string()
            tag = self._take(1)
            if tag == b"i":
                out[key] = self.i64()
            elif tag == b"f":
                out[key] = self.f64()
            elif tag == b"b":
                out[key] = bool(self.u8())
            elif tag == b"s":
                out[key] = self.string()
            else:
                raise ProtocolError(f"unknown kv tag {tag!r}")
        return out

    def done(self) -> None:
        if self._pos != len(self._buf):
            raise ProtocolError(
                f"{len(self._buf) - self._pos} trailing bytes after message"
            )


def _pack_array(w: _Writer, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    w.string(array.dtype.str)
    w.u8(array.ndim)
    for dim in array.shape:
        w.u64(dim)
    w.blob(array.tobytes())


def _unpack_array(r: _Reader) -> np.ndarray:
    spec = r.string()
    try:
        dtype = np.dtype(spec)
    except (TypeError, ValueError, SyntaxError):
        raise ProtocolError(f"unknown array dtype {spec!r}") from None
    if dtype.kind not in "biufc":
        raise ProtocolError(f"array dtype {spec!r} is not numeric")
    ndim = r.u8()
    shape = tuple(r.u64() for _ in range(ndim))
    raw = r.blob()
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise ProtocolError(
            f"array payload is {len(raw)} bytes but dtype/shape imply {expected}"
        )
    # bytearray -> writable array without a second copy on the numpy side
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)


def _pack_slab(w: _Writer, slab: Sequence[object]) -> None:
    w.u8(len(slab))
    for dim in slab:
        if dim is None:
            dim = slice(None)
        elif isinstance(dim, tuple):
            dim = slice(dim[0], dim[1])
        elif not isinstance(dim, slice):
            raise ProtocolError(f"bad slab dimension {dim!r}")
        if dim.step not in (None, 1):
            raise ProtocolError("strided slabs are not supported")
        flags = 0
        if dim.start is not None:
            flags |= _SLAB_HAS_START
        if dim.stop is not None:
            flags |= _SLAB_HAS_STOP
        w.u8(flags)
        w.i64(dim.start if dim.start is not None else 0)
        w.i64(dim.stop if dim.stop is not None else 0)


def _unpack_slab(r: _Reader) -> Tuple[slice, ...]:
    out = []
    for _ in range(r.u8()):
        flags = r.u8()
        start = r.i64()
        stop = r.i64()
        out.append(
            slice(
                start if flags & _SLAB_HAS_START else None,
                stop if flags & _SLAB_HAS_STOP else None,
            )
        )
    return tuple(out)


# --------------------------------------------------------------------------
# request dataclasses (also the in-process API surface)
# --------------------------------------------------------------------------

@dataclass
class PingRequest:
    pass


@dataclass
class CompressRequest:
    """Compress one field into a chunked container.

    ``family`` opts the request into cross-field plan sharing (see
    :func:`repro.core.plan_cache.field_signature`); empty/None keeps the
    byte-identical content-keyed default.  ``priority`` / ``client_id``
    / ``attempt`` are the admission metadata every schedulable request
    carries (see the module docstring).

    ``bound`` is an :class:`~repro.utils.ErrorBound` or any spelling
    :meth:`~repro.utils.ErrorBound.parse` accepts (``"rel:1e-3"``); every
    spelling goes on the wire as the same ``(mode u8, value f64)``
    fields, and a decoded request holds the parsed ``ErrorBound``.
    """

    data: np.ndarray
    codec: str = "qoz"
    codec_kwargs: Dict = field(default_factory=dict)
    chunks: Union[int, Tuple[int, ...], None] = None
    family: Optional[str] = None
    per_chunk_tuning: bool = False
    priority: str = "interactive"
    client_id: Optional[str] = None
    attempt: int = 0
    deadline_ms: Optional[float] = None
    bound: Optional[BoundLike] = None

    @property
    def normalized_bound(self) -> ErrorBound:
        """The request's bound, parsed from whichever spelling it has."""
        return ErrorBound.parse(self.bound)


@dataclass
class DecompressRequest:
    blob: bytes
    priority: str = "interactive"
    client_id: Optional[str] = None
    attempt: int = 0
    deadline_ms: Optional[float] = None


@dataclass
class ReadSlabRequest:
    """Hyperslab read from a container: inline bytes or a server-side path."""

    source: Union[bytes, str]
    slab: Tuple[slice, ...]
    priority: str = "interactive"
    client_id: Optional[str] = None
    attempt: int = 0
    deadline_ms: Optional[float] = None


@dataclass
class StatsRequest:
    pass


Request = Union[
    PingRequest, CompressRequest, DecompressRequest, ReadSlabRequest, StatsRequest
]


# --------------------------------------------------------------------------
# request encode/decode
# --------------------------------------------------------------------------

def validate_priority(priority: str) -> str:
    if priority not in PRIORITIES:
        raise ProtocolError(
            f"unknown priority {priority!r} (expected one of {PRIORITIES})"
        )
    return priority


def validate_deadline_ms(deadline_ms) -> float:
    """A deadline is a finite, positive budget in milliseconds."""
    try:
        value = float(deadline_ms)
    except (TypeError, ValueError):
        raise ProtocolError(f"bad deadline_ms {deadline_ms!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise ProtocolError(f"bad deadline_ms {deadline_ms!r}")
    return value


def _request_writer(op: int, req: Request) -> _Writer:
    """Version + opcode + the v2 meta kv (non-default entries only)."""
    w = _Writer()
    w.u8(PROTOCOL_VERSION)
    w.u8(op)
    meta: Dict = {}
    priority = getattr(req, "priority", "interactive")
    if priority != "interactive":
        meta["priority"] = validate_priority(priority)
    client_id = getattr(req, "client_id", None)
    if client_id:
        meta["client_id"] = str(client_id)
    attempt = int(getattr(req, "attempt", 0))
    if attempt:
        meta["attempt"] = attempt
    deadline_ms = getattr(req, "deadline_ms", None)
    if deadline_ms is not None:
        meta["deadline_ms"] = validate_deadline_ms(deadline_ms)
    w.kv(meta)
    return w


def _apply_meta(req: Request, meta: Dict) -> Request:
    if hasattr(req, "priority"):
        req.priority = validate_priority(str(meta.get("priority", "interactive")))
        req.client_id = str(meta["client_id"]) if meta.get("client_id") else None
        attempt = meta.get("attempt", 0)
        if not isinstance(attempt, int) or attempt < 0:
            raise ProtocolError(f"bad attempt counter {attempt!r}")
        req.attempt = attempt
        deadline_ms = meta.get("deadline_ms")
        if deadline_ms is not None:
            deadline_ms = validate_deadline_ms(deadline_ms)
        req.deadline_ms = deadline_ms
    return req


def encode_request(req: Request) -> bytes:
    if isinstance(req, PingRequest):
        return _request_writer(OP_PING, req).getvalue()
    if isinstance(req, CompressRequest):
        w = _request_writer(OP_COMPRESS, req)
        w.string(req.codec)
        w.kv(req.codec_kwargs)
        try:
            spec = req.normalized_bound
        except CompressionError as exc:
            raise ProtocolError(str(exc)) from None
        w.u8(1 if spec.is_relative else 0)
        w.f64(spec.value)
        # scalar (broadcast to every axis) and per-axis tuple are distinct
        # specs — a (4,) tuple must round-trip as a rank-1 requirement,
        # not silently become a broadcast 4
        if req.chunks is None:
            w.u8(0)
        elif isinstance(req.chunks, int):
            w.u8(1)
            w.u32(req.chunks)
        else:
            w.u8(2)
            w.u8(len(req.chunks))
            for c in req.chunks:
                w.u32(c)
        w.string(req.family or "")
        w.u8(1 if req.per_chunk_tuning else 0)
        _pack_array(w, req.data)
        return w.getvalue()
    if isinstance(req, DecompressRequest):
        w = _request_writer(OP_DECOMPRESS, req)
        w.blob(req.blob)
        return w.getvalue()
    if isinstance(req, ReadSlabRequest):
        w = _request_writer(OP_READ_SLAB, req)
        if isinstance(req.source, (bytes, bytearray, memoryview)):
            w.u8(0)
            w.blob(bytes(req.source))
        else:
            w.u8(1)
            w.string(str(req.source))
        _pack_slab(w, req.slab)
        return w.getvalue()
    if isinstance(req, StatsRequest):
        return _request_writer(OP_STATS, req).getvalue()
    raise ProtocolError(f"cannot encode request of type {type(req).__name__}")


_REQUEST_OPS = (OP_PING, OP_COMPRESS, OP_DECOMPRESS, OP_READ_SLAB, OP_STATS)
_RESPONSE_STATUSES = (ST_OK, ST_ERROR, ST_RETRY)


def _read_preamble(r: _Reader, what: str, known: Tuple[int, ...]) -> int:
    """The two bytes every body starts with: protocol version, then the
    request opcode or response status.  Validated before anything else
    is touched, so a bad code reports itself instead of a misleading
    truncation error further in."""
    version = r.u8()
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version} not supported (this side speaks "
            f"{PROTOCOL_VERSION})"
        )
    code = r.u8()
    if code not in known:
        raise ProtocolError(f"unknown {what} {code}")
    return code


def decode_request(body: bytes) -> Request:
    r = _Reader(body)
    op = _read_preamble(r, "request opcode", _REQUEST_OPS)
    meta = r.kv()
    if op == OP_PING:
        req: Request = PingRequest()
    elif op == OP_COMPRESS:
        codec = r.string()
        kwargs = r.kv()
        eb_mode = r.u8()
        if eb_mode >= len(ErrorBound.MODES):
            raise ProtocolError(f"unknown error-bound mode {eb_mode}")
        try:
            bound = ErrorBound(ErrorBound.MODES[eb_mode], r.f64())
        except CompressionError as exc:
            raise ProtocolError(str(exc)) from None
        chunks_kind = r.u8()
        chunks: Union[int, Tuple[int, ...], None]
        if chunks_kind == 0:
            chunks = None
        elif chunks_kind == 1:
            chunks = r.u32()
        elif chunks_kind == 2:
            chunks = tuple(r.u32() for _ in range(r.u8()))
        else:
            raise ProtocolError(f"unknown chunk-spec kind {chunks_kind}")
        family = r.string() or None
        per_chunk = bool(r.u8())
        data = _unpack_array(r)
        req = CompressRequest(
            data=data,
            codec=codec,
            codec_kwargs=kwargs,
            bound=bound,
            chunks=chunks,
            family=family,
            per_chunk_tuning=per_chunk,
        )
    elif op == OP_DECOMPRESS:
        req = DecompressRequest(blob=r.blob())
    elif op == OP_READ_SLAB:
        kind = r.u8()
        source: Union[bytes, str]
        if kind == 0:
            source = r.blob()
        elif kind == 1:
            source = r.string()
        else:
            raise ProtocolError(f"unknown read source kind {kind}")
        req = ReadSlabRequest(source=source, slab=_unpack_slab(r))
    else:
        req = StatsRequest()
    r.done()
    return _apply_meta(req, meta)


# --------------------------------------------------------------------------
# response encode/decode
# --------------------------------------------------------------------------

def _response_writer(status: int) -> _Writer:
    w = _Writer()
    w.u8(PROTOCOL_VERSION)
    w.u8(status)
    return w


def encode_ok_empty() -> bytes:
    return _response_writer(ST_OK).getvalue()


def encode_ok_bytes(blob: bytes) -> bytes:
    w = _response_writer(ST_OK)
    w.blob(blob)
    return w.getvalue()


def encode_ok_array(array: np.ndarray) -> bytes:
    w = _response_writer(ST_OK)
    _pack_array(w, array)
    return w.getvalue()


def encode_ok_kv(mapping: Dict) -> bytes:
    w = _response_writer(ST_OK)
    w.kv(mapping)
    return w.getvalue()


def encode_error(message: str) -> bytes:
    w = _response_writer(ST_ERROR)
    # one line, bounded — tracebacks stay on the server
    w.string(message.splitlines()[0][:1024] if message else "internal error")
    return w.getvalue()


def encode_retry(retry_after: float, reason: str = "overloaded") -> bytes:
    w = _response_writer(ST_RETRY)
    w.f64(retry_after)
    w.string(reason)
    return w.getvalue()


@dataclass
class Response:
    """Decoded response: exactly one payload field is set for ST_OK."""

    status: int
    blob: Optional[bytes] = None
    array: Optional[np.ndarray] = None
    mapping: Optional[Dict] = None
    message: Optional[str] = None
    retry_after: Optional[float] = None
    reason: Optional[str] = None


def decode_response(body: bytes, op: int) -> Response:
    """Decode a response body; ``op`` is the request opcode it answers."""
    r = _Reader(body)
    status = _read_preamble(r, "response status", _RESPONSE_STATUSES)
    if status == ST_ERROR:
        resp = Response(status=status, message=r.string())
    elif status == ST_RETRY:
        resp = Response(status=status, retry_after=r.f64(), reason=r.string())
    elif op == OP_COMPRESS:
        resp = Response(status=status, blob=r.blob())
    elif op in (OP_DECOMPRESS, OP_READ_SLAB):
        resp = Response(status=status, array=_unpack_array(r))
    elif op == OP_STATS:
        resp = Response(status=status, mapping=r.kv())
    else:
        resp = Response(status=status)
    r.done()
    return resp


# --------------------------------------------------------------------------
# framing
# --------------------------------------------------------------------------

def frame(body: bytes) -> bytes:
    """Prefix a message body with its u32 length."""
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds cap {MAX_FRAME}"
        )
    return struct.pack("<I", len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame body; None on clean EOF at a frame boundary."""
    try:
        head = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame-header") from exc
    (length,) = struct.unpack("<I", head)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds cap {MAX_FRAME}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc


def read_frame_sync(sock: socket.socket) -> bytes:
    """Blocking frame read from a ``socket.socket`` (client side)."""
    head = _recv_exact(sock, 4)
    (length,) = struct.unpack("<I", head)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds cap {MAX_FRAME}")
    return _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    parts = []
    remaining = n
    while remaining:
        part = sock.recv(min(remaining, 1 << 20))
        if not part:
            # ServiceConnectionError is-a ProtocolError, so existing
            # callers keep working — but reconnect-capable clients can
            # now tell "peer vanished" from "peer sent garbage"
            raise ServiceConnectionError("connection closed mid-frame")
        parts.append(part)
        remaining -= len(part)
    return b"".join(parts)


def op_for_request(req: Request) -> int:
    if isinstance(req, PingRequest):
        return OP_PING
    if isinstance(req, CompressRequest):
        return OP_COMPRESS
    if isinstance(req, DecompressRequest):
        return OP_DECOMPRESS
    if isinstance(req, ReadSlabRequest):
        return OP_READ_SLAB
    if isinstance(req, StatsRequest):
        return OP_STATS
    raise ProtocolError(f"unknown request type {type(req).__name__}")


__all__ = [
    "PROTOCOL_VERSION",
    "PRIORITIES",
    "MAX_FRAME",
    "OP_PING",
    "OP_COMPRESS",
    "OP_DECOMPRESS",
    "OP_READ_SLAB",
    "OP_STATS",
    "ST_OK",
    "ST_ERROR",
    "ST_RETRY",
    "PingRequest",
    "CompressRequest",
    "DecompressRequest",
    "ReadSlabRequest",
    "StatsRequest",
    "Request",
    "Response",
    "encode_request",
    "decode_request",
    "encode_ok_empty",
    "encode_ok_bytes",
    "encode_ok_array",
    "encode_ok_kv",
    "encode_error",
    "encode_retry",
    "decode_response",
    "validate_priority",
    "validate_deadline_ms",
    "frame",
    "read_frame",
    "read_frame_sync",
    "op_for_request",
]

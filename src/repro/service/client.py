"""Clients for the compression service.

Two clients, one surface:

* :class:`ServiceClient` is *in-process*: it runs a private event loop on
  a daemon thread, hosts its own
  :class:`~repro.service.scheduler.CompressionService`, and hands request
  dataclasses straight to the scheduler — no sockets, no serialization.
  It exercises the full admission/scheduling/plan-cache machinery, which is
  exactly what the unit tests want (and what an application embedding the
  service as a library gets).
* :class:`RemoteClient` speaks the length-prefixed binary protocol over a
  plain blocking TCP socket to a ``repro serve`` process.  RETRY
  responses (backpressure) raise :class:`ServiceOverloadedError` by
  default; ``retries > 0`` opts into honoring the server's
  ``retry_after`` hint with a bounded retry loop.  The retry sleep is
  *jittered* — ``hint * (0.5 + rng.random())`` — so a burst of clients
  rejected together does not reconverge on the server as a thundering
  herd one hint later; each retry also re-encodes the request with a
  bumped ``attempt`` counter, which is how the server's ``retried_*``
  stats distinguish retries from fresh arrivals.

  ``reconnects > 0`` additionally survives the *connection* dying
  mid-request (a server restart, a proxy reset): a send/receive that
  fails with :class:`~repro.errors.ServiceConnectionError` / ``OSError``
  closes the socket, dials a fresh connection (jittered backoff,
  growing with consecutive drops), and resends — safe because every
  service request is idempotent.  Once the
  per-request budget is exhausted the failure surfaces as
  :class:`~repro.errors.ServiceConnectionError`.  RETRY backpressure
  hints are honored independently of (and in addition to) this path.

Both inherit ``compress`` / ``decompress`` / ``read`` / ``stats`` /
``ping`` from one definition (:class:`_ClientAPI`) over a per-transport
``_request`` hook, and are context managers.  Work requests accept
``priority`` (``interactive`` / ``batch``) and ``client_id`` keywords; a constructor-level ``client_id`` is the default
identity for per-client quota accounting.  ``deadline_ms`` attaches a
server-enforced deadline: a job still queued past it is shed, a running
one is cancelled, and either way the client gets a one-line error
(:class:`~repro.errors.DeadlineExceededError` in-process, an ERROR frame
over the wire) instead of an unbounded wait.
"""

from __future__ import annotations

import asyncio
import os
import random
import socket
import threading
import time
from typing import (
    Any,
    Coroutine,
    Dict,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
    cast,
)

import numpy as np

from repro.errors import (
    ProtocolError,
    RemoteServiceError,
    ServiceConnectionError,
    ServiceOverloadedError,
)
from repro.service import protocol
from repro.service.scheduler import CompressionService, ServiceConfig
from repro.utils import BoundLike

_T = TypeVar("_T")

#: hyperslab spec as clients accept it (mirrors repro.chunked.tiling.Slab)
SlabArg = Sequence[Union[slice, Tuple[int, int], None]]


class _ClientAPI:
    """The client surface, defined once over a transport's ``_request``."""

    client_id: Optional[str] = None

    def _request(self, request: protocol.Request) -> Any:
        """Send one request; return its result (bytes / array / dict)."""
        raise NotImplementedError

    def _meta(
        self,
        priority: str,
        client_id: Optional[str],
        deadline_ms: Optional[float],
    ) -> Dict[str, Any]:
        """The admission metadata every work request carries."""
        protocol.validate_priority(priority)
        if deadline_ms is not None:
            deadline_ms = protocol.validate_deadline_ms(deadline_ms)
        return {
            "priority": priority,
            "client_id": client_id or self.client_id,
            "deadline_ms": deadline_ms,
        }

    def ping(self) -> None:
        self._request(protocol.PingRequest())

    def compress(
        self,
        data: np.ndarray,
        codec: str = "qoz",
        bound: Optional[BoundLike] = None,
        chunks: Union[int, Sequence[int], None] = None,
        codec_kwargs: Optional[Dict] = None,
        family: Optional[str] = None,
        per_chunk_tuning: bool = False,
        priority: str = "interactive",
        client_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> bytes:
        if chunks is not None and not isinstance(chunks, int):
            chunks = tuple(chunks)
        return cast(bytes, self._request(protocol.CompressRequest(
            data=np.asarray(data),
            codec=codec,
            codec_kwargs=dict(codec_kwargs or {}),
            bound=bound,
            chunks=chunks,
            family=family,
            per_chunk_tuning=per_chunk_tuning,
            **self._meta(priority, client_id, deadline_ms),
        )))

    def decompress(
        self,
        blob: bytes,
        priority: str = "interactive",
        client_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        return cast(np.ndarray, self._request(protocol.DecompressRequest(
            blob=bytes(blob),
            **self._meta(priority, client_id, deadline_ms),
        )))

    def read(
        self,
        source: Union[bytes, str],
        slab: SlabArg,
        priority: str = "interactive",
        client_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        return cast(np.ndarray, self._request(protocol.ReadSlabRequest(
            source=source,
            slab=tuple(slab),
            **self._meta(priority, client_id, deadline_ms),
        )))

    def stats(self) -> Dict[str, Union[int, float]]:
        return cast(
            Dict[str, Union[int, float]],
            self._request(protocol.StatsRequest()),
        )


class ServiceClient(_ClientAPI):
    """In-process client: private loop thread + embedded service."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        client_id: Optional[str] = None,
    ) -> None:
        self.client_id = client_id
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        self.service = CompressionService(config)
        self._call(self.service.start())

    def _call(self, coro: Coroutine[Any, Any, _T]) -> _T:
        # synchronous bridge onto the private loop thread; .result() here
        # blocks the *caller's* thread, never the loop (what the
        # blocking_calls_in_async_defs pin guards)
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _request(self, request: protocol.Request) -> Any:
        return self._call(self.service.handle(request))

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._call(self.service.close())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: object,
    ) -> None:
        self.close()


class RemoteClient(_ClientAPI):
    """Blocking socket client for a running ``repro serve`` endpoint.

    ``retries`` bounds backpressure (RETRY-frame) retries; ``reconnects``
    bounds transport recovery after the connection dies mid-request (see
    the module docstring).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9753,
        timeout: float = 300.0,
        retries: int = 0,
        client_id: Optional[str] = None,
        reconnects: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.reconnects = reconnects
        self.client_id = client_id
        # Per-client RNG for retry jitter.  Seeded from the OS, not the
        # default global state: many client processes forked from one
        # parent (the load generator, an MPI job) must not share a seed,
        # or the jitter degenerates back into lockstep retries.
        self._jitter_rng = random.Random(os.urandom(8))
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _reconnect(self, drops: int) -> None:
        """Replace a dead connection; backoff grows with consecutive drops."""
        try:
            self._sock.close()
        except OSError:
            pass
        self._retry_sleep(0.05 * drops)
        self._sock = self._connect()

    # ----------------------------------------------------------------- rpc
    def _retry_sleep(self, hint: float) -> float:
        """Jittered backoff: sleep ``hint * (0.5 + U[0, 1))`` seconds.

        Two clients rejected by the same overload event receive the same
        ``retry_after`` hint; sleeping it verbatim would wake them in the
        same scheduler tick and reproduce the original collision.  The
        multiplicative jitter spreads wakeups across [0.5h, 1.5h) while
        keeping the server's hint as the expected value.
        """
        delay = hint * (0.5 + self._jitter_rng.random())
        time.sleep(delay)
        return delay

    def _send_all(self, payload: bytes) -> None:
        """Send every byte, looping over partial writes explicitly.

        ``socket.sendall`` gives up with the write position unknowable
        once any single ``send`` fails — after a timeout mid-frame the
        connection is unusable but the caller cannot tell how much
        leaked.  An explicit loop always knows the offset, so the error
        can say how far the frame got (and tests can drive tiny
        ``SO_SNDBUF`` sockets through the partial-write path).
        """
        view = memoryview(payload)
        sent = 0
        while sent < len(view):
            n = self._sock.send(view[sent:])
            if n == 0:
                raise ServiceConnectionError(
                    f"connection closed mid-send ({sent} of "
                    f"{len(view)} bytes written)"
                )
            sent += n

    def _rpc(self, request: protocol.Request) -> protocol.Response:
        op = protocol.op_for_request(request)
        attempts = self.retries + 1
        attempt = 0
        drops = 0
        while attempt < attempts:
            if hasattr(request, "attempt"):
                request.attempt = attempt
            payload = protocol.frame(protocol.encode_request(request))
            try:
                self._send_all(payload)
                resp = protocol.decode_response(
                    protocol.read_frame_sync(self._sock), op
                )
            except (ServiceConnectionError, OSError) as exc:
                # Transport death, not backpressure: the request is
                # idempotent, so redial and resend without consuming the
                # RETRY budget or bumping ``attempt`` (the server's
                # retried_* stats count admission retries, not drops).
                err: Exception = exc
                while True:
                    drops += 1
                    if drops > self.reconnects:
                        raise ServiceConnectionError(
                            f"connection to {self.host}:{self.port} lost "
                            f"mid-request ({drops} drop(s), reconnect "
                            f"budget {self.reconnects}): {err}"
                        ) from err
                    try:
                        # A failed dial (server still restarting) burns
                        # budget like a drop; the growing backoff gives
                        # it time to come back.
                        self._reconnect(drops)
                        break
                    except OSError as dial_exc:
                        err = dial_exc
                continue
            if resp.status == protocol.ST_OK:
                return resp
            if resp.status == protocol.ST_ERROR:
                raise RemoteServiceError(resp.message or "remote error")
            # ST_RETRY: honor the hint if the caller allowed retries
            attempt += 1
            if attempt >= attempts:
                raise ServiceOverloadedError(
                    resp.retry_after or 0.05, resp.reason or "overloaded"
                )
            self._retry_sleep(resp.retry_after or 0.05)
        raise ProtocolError("unreachable")  # pragma: no cover

    def _request(self, request: protocol.Request) -> Any:
        # an ST_OK response sets exactly one payload field (none: ping)
        resp = self._rpc(request)
        if resp.blob is not None:
            return resp.blob
        return resp.array if resp.array is not None else resp.mapping

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: object,
    ) -> None:
        self.close()


__all__ = ["ServiceClient", "RemoteClient"]

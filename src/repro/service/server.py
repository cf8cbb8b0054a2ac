"""Asyncio front end: ``python -m repro serve`` (or ``repro serve``).

One :class:`~repro.service.scheduler.CompressionService` serves every
connection; each connection handler reads frames sequentially (request
concurrency comes from having many connections, whose jobs the shared
scheduler runs in its slots).  Errors are mapped to
protocol responses at this boundary:

* :class:`ServiceOverloadedError` -> RETRY with the suggested delay and
  the rejecting admission rule's name — the *normal* outcome under
  burst load, not a failure;
* any :class:`ReproError` / ``ValueError`` / ``KeyError`` / ``OSError``
  -> ERROR with a one-line message (tracebacks stay server-side);
* a malformed frame -> ERROR, then the connection is dropped (framing
  can no longer be trusted).

With ``stats_interval`` > 0 in the service config the server also logs
one compact snapshot line per interval (queue depth, admit / reject
counts, plan-cache hit rate, slot fill, queue-wait and run p50/p99) —
rendered from the same snapshot dict the STATS frame serves, so a log
line and a ``repro serve-stats`` table never disagree.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Optional

import numpy as np

from repro.errors import ProtocolError, ServiceOverloadedError
from repro.service import protocol
from repro.service.admission import format_stats_line
from repro.service.scheduler import CompressionService, ServiceConfig


class ServiceServer:
    """Wrap a :class:`CompressionService` in an asyncio stream server."""

    def __init__(
        self,
        service: CompressionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0 = pick a free port; updated once listening
        self._server: Optional[asyncio.AbstractServer] = None
        self._stats_task: Optional[asyncio.Task] = None

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        interval = getattr(self.service.config, "stats_interval", 0.0)
        if interval and interval > 0:
            self._stats_task = asyncio.ensure_future(
                self._log_stats_periodically(float(interval))
            )

    async def close(self) -> None:
        if self._stats_task is not None:
            self._stats_task.cancel()
            try:
                await self._stats_task
            except asyncio.CancelledError:
                pass
            self._stats_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def _log_stats_periodically(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            print(format_stats_line(self.service.stats()), flush=True)

    # ------------------------------------------------------------- plumbing
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection's request loop: a frame in, a frame out.

        Ends on EOF, on a peer reset, or after answering a malformed frame
        with ERROR (framing can no longer be trusted); the writer is
        closed either way.
        """
        self.service.metrics.connection_opened()
        try:
            while True:
                try:
                    body = await protocol.read_frame(reader)
                except ProtocolError as exc:
                    writer.write(protocol.frame(protocol.encode_error(str(exc))))
                    await writer.drain()
                    break
                if body is None:
                    break
                writer.write(protocol.frame(await self._respond(body)))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # server shutdown while blocked on read_frame; returning (not
            # re-raising) keeps asyncio.streams' connection_made callback
            # from logging the retrieved CancelledError at close
            pass
        finally:
            self.service.metrics.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, body: bytes) -> bytes:
        try:
            request = protocol.decode_request(body)
        except (ProtocolError, ValueError, TypeError) as exc:
            # beyond ProtocolError, a forged body can fail deeper in the
            # decode (np.dtype on a garbage string -> TypeError, invalid
            # UTF-8 -> UnicodeDecodeError, reshape -> ValueError); all of
            # them are "malformed frame" and get the ERROR response
            return protocol.encode_error(str(exc))
        try:
            result = await self.service.handle(request)
        except ServiceOverloadedError as exc:
            return protocol.encode_retry(exc.retry_after, exc.reason)
        except Exception as exc:
            # this is THE error-mapping boundary: anything a handler can
            # raise (ReproError, KeyError, OSError, MemoryError, ...)
            # becomes a one-line ERROR frame and the connection lives on.
            # CancelledError is a BaseException and still propagates.
            msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            return protocol.encode_error(str(msg) or type(exc).__name__)
        if isinstance(request, protocol.CompressRequest):
            response = protocol.encode_ok_bytes(result)
        elif isinstance(
            request, (protocol.DecompressRequest, protocol.ReadSlabRequest)
        ):
            response = protocol.encode_ok_array(np.asarray(result))
        elif isinstance(request, protocol.StatsRequest):
            response = protocol.encode_ok_kv(result)
        else:
            response = protocol.encode_ok_empty()
        if len(response) > protocol.MAX_FRAME:
            # a result that cannot be framed must degrade to an ERROR
            # response, not let frame() raise past the error boundary
            # and kill the connection after the work was already done
            return protocol.encode_error(
                f"result of {len(response)} bytes exceeds the "
                f"{protocol.MAX_FRAME}-byte frame cap"
            )
        return response


def run_server(
    host: str = "127.0.0.1",
    port: int = 9753,
    config: Optional[ServiceConfig] = None,
) -> int:
    """Blocking entry point for the CLI: serve until interrupted.

    Prints one ``repro service listening on HOST:PORT`` line once the
    socket is bound (``--port 0`` picks a free port, so callers — the CI
    smoke test included — parse the actual port from this line).
    """

    async def _main() -> None:
        server = ServiceServer(CompressionService(config), host, port)
        await server.start()
        print(
            f"repro service listening on {server.host}:{server.port}",
            flush=True,
        )
        # SIGTERM / SIGINT end the serve task, so the ``finally`` runs and
        # the service stops its pool workers instead of orphaning them
        serving = asyncio.ensure_future(server.serve_forever())
        for sig in (signal.SIGTERM, signal.SIGINT):
            asyncio.get_running_loop().add_signal_handler(sig, serving.cancel)
        try:
            await serving
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


__all__ = ["ServiceServer", "run_server"]

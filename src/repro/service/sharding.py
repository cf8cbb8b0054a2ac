"""Multi-process serve runtime: ``repro serve --shards N`` (DESIGN.md §14).

Topology: a thin parent **supervisor** and N child **shard** processes,
each running one complete :class:`~repro.service.server.ShardRuntime`
(its own event loop, scheduler, admission controller, metrics, plan
cache, worker pool).  Shards share *nothing* mutable — the only
inter-process channel is the plan replication bus
(:mod:`repro.service.planbus`), a pipe star centered on the supervisor.

One accept path: every shard binds the *same* public (host, port) with
``SO_REUSEPORT`` and the kernel distributes incoming connections across
the listeners.  Zero userspace forwarding cost; placement is the
kernel's 4-tuple hash, so plan warmth comes from the replication bus,
not from routing — and a handful of long-lived connections can land
unevenly (EXPERIMENTS.md §10).  A platform without ``SO_REUSEPORT``
gets one :class:`~repro.errors.ConfigurationError`.

The supervisor is deliberately boring and never on a request's path: a
single-threaded asyncio loop that (1) respawns crashed shards (fresh
bus pipe, bounded budget; the hub answers the newcomer's first publish
of a key with the plan the fleet already runs), and (2) serves the
**admin endpoint** — the same binary protocol, STATS/PING only — whose
STATS response is the all-shards aggregate
(:func:`repro.service.admission.aggregate_snapshots`) with per-shard
``shardN_``-prefixed rows.  Because it never compresses anything,
forking a new shard from it is always safe.

A dead shard is invisible to clients beyond its in-flight connections:
the kernel stops offering the dead listener, and
:class:`~repro.service.client.RemoteClient` with ``reconnects > 0``
transparently lands on a live shard.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import signal
import socket
import sys
from typing import Dict, Optional

from multiprocessing.connection import Connection

from repro.errors import ConfigurationError, ProtocolError
from repro.service import protocol
from repro.service.admission import aggregate_snapshots
from repro.service.planbus import BusHub, PlanBusEndpoint
from repro.service.scheduler import ServiceConfig
from repro.service.server import ShardRuntime, serve_frames

#: a crashed shard is restarted after this many seconds, at most
#: MAX_RESPAWNS times — enough to ride out transient failures without
#: hot-looping on a persistent one
RESPAWN_DELAY = 0.5
MAX_RESPAWNS = 10


# --------------------------------------------------------------------------
# shard child process
# --------------------------------------------------------------------------

def _shard_main(
    config: ServiceConfig,
    host: str,
    port: int,
    conn: Connection,
) -> None:
    """Entry point of one shard process: serve until told to stop.

    The shard builds its entire runtime *after* the fork — plan cache,
    metrics, admission, pool all start empty and private (RL011); the
    inherited ``conn`` is its only link to the rest of the deployment.
    """
    endpoint = PlanBusEndpoint(conn, config.shard_id)

    async def _main() -> None:
        runtime = ShardRuntime(
            config, host, port, reuse_port=True, bus=endpoint
        )
        await runtime.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
        serve = asyncio.ensure_future(runtime.serve_forever())
        waiter = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {serve, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serve.cancel()
            waiter.cancel()
            await runtime.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


# --------------------------------------------------------------------------
# admin endpoint (aggregated stats)
# --------------------------------------------------------------------------

class _AdminServer:
    """STATS/PING-only protocol endpoint on the supervisor.

    A STATS frame answers with the all-shards aggregate plus
    ``shardN_``-prefixed per-shard rows and supervisor-level keys
    (``shards``, ``shards_reporting``, ``shard_respawns``) — the data
    behind ``repro serve-stats --all-shards``.
    """

    def __init__(self, supervisor: "_Supervisor", host: str, port: int) -> None:
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_frames(reader, writer, self._respond)

    async def _respond(self, body: bytes) -> bytes:
        try:
            request = protocol.decode_request(body)
        except (ProtocolError, ValueError, TypeError) as exc:
            return protocol.encode_error(str(exc))
        if isinstance(request, protocol.PingRequest):
            return protocol.encode_ok_empty()
        if isinstance(request, protocol.StatsRequest):
            return protocol.encode_ok_kv(
                await self.supervisor.aggregated_stats()
            )
        return protocol.encode_error(
            "admin endpoint serves STATS and PING only; send work "
            "requests to the public port"
        )


# --------------------------------------------------------------------------
# supervisor
# --------------------------------------------------------------------------

class _Supervisor:
    """Parent-process state: shard processes, bus hub, respawn logic."""

    def __init__(
        self,
        config: ServiceConfig,
        host: str,
        public_port: int,
        shards: int,
    ) -> None:
        self.config = config
        self.host = host
        self.public_port = public_port
        self.shards = shards
        self.hub = BusHub()
        self.procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        self.respawns: Dict[int, int] = {i: 0 for i in range(shards)}
        self.closing = False
        self._mp = multiprocessing.get_context()
        self._reserve_sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------ spawning
    def reserve_public_port(self) -> None:
        """Resolve ``--port 0`` *before* spawning.

        Every shard must bind the same number, so the supervisor binds a
        SO_REUSEPORT socket first and keeps it open — bound but never
        listening, so the kernel hands connections only to the shards'
        listening sockets — and the shards join its reuseport group.
        """
        if self.public_port != 0:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, 0))
        self._reserve_sock = sock
        self.public_port = sock.getsockname()[1]

    def spawn_shard(self, shard_id: int) -> None:
        conn = self.hub.add_shard(shard_id)
        proc = self._mp.Process(
            target=_shard_main,
            args=(
                dataclasses.replace(
                    self.config, shard_id=shard_id, n_shards=self.shards
                ),
                self.host,
                self.public_port,
                conn,
            ),
            name=f"repro-shard-{shard_id}",
        )
        proc.start()
        conn.close()  # the child owns this end now
        self.procs[shard_id] = proc
        if self._loop is not None and proc.sentinel is not None:
            self._loop.add_reader(
                proc.sentinel, self._on_shard_exit, shard_id, proc
            )

    def watch_shards(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        for shard_id, proc in self.procs.items():
            loop.add_reader(
                proc.sentinel, self._on_shard_exit, shard_id, proc
            )

    def _on_shard_exit(
        self, shard_id: int, proc: multiprocessing.process.BaseProcess
    ) -> None:
        if self._loop is not None:
            self._loop.remove_reader(proc.sentinel)
        proc.join()
        if self.closing:
            return
        self.respawns[shard_id] += 1
        if self.respawns[shard_id] > MAX_RESPAWNS:
            print(
                f"repro shard {shard_id} exceeded {MAX_RESPAWNS} respawns; "
                "leaving it down",
                file=sys.stderr,
                flush=True,
            )
            return
        print(
            f"repro shard {shard_id} exited (code {proc.exitcode}); "
            f"respawning in {RESPAWN_DELAY}s",
            file=sys.stderr,
            flush=True,
        )
        assert self._loop is not None
        self._loop.call_later(RESPAWN_DELAY, self._respawn, shard_id)

    def _respawn(self, shard_id: int) -> None:
        if not self.closing:
            self.spawn_shard(shard_id)

    # ------------------------------------------------------------ shutdown
    def shutdown(self) -> None:
        self.closing = True
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
        self.hub.close()
        if self._reserve_sock is not None:
            self._reserve_sock.close()
            self._reserve_sock = None

    # --------------------------------------------------------------- stats
    async def aggregated_stats(self) -> Dict[str, object]:
        snaps = await self.hub.collect_stats()
        out = aggregate_snapshots(snaps, per_shard=True)
        out["shards"] = self.shards
        out["shard_respawns"] = sum(self.respawns.values())
        return dict(out)


def run_sharded(
    host: str = "127.0.0.1",
    port: int = 9753,
    config: Optional[ServiceConfig] = None,
    shards: int = 2,
    admin_port: Optional[int] = None,
) -> int:
    """Blocking entry point for ``repro serve --shards N`` (N >= 2).

    Prints, in order, once everything is up::

        repro shard I/N pid=PID listening on HOST:PORT   (per shard)
        repro admin listening on HOST:APORT
        repro service listening on HOST:PORT

    The last line matches the single-shard format exactly, so anything
    that parses ``repro serve`` output keeps working.  The admin port
    defaults to public port + 1 (0 picks a free one).
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if not hasattr(socket, "SO_REUSEPORT"):
        raise ConfigurationError(
            "--shards needs SO_REUSEPORT, which this platform lacks"
        )
    sup = _Supervisor(config or ServiceConfig(), host, port, shards)
    sup.reserve_public_port()
    for shard_id in range(shards):
        sup.spawn_shard(shard_id)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
        sup.hub.attach(loop)
        sup.watch_shards(loop)
        await sup.hub.wait_ready()
        admin = _AdminServer(
            sup,
            host,
            admin_port if admin_port is not None else sup.public_port + 1,
        )
        await admin.start()
        for shard_id in sorted(sup.hub.pids):
            print(
                f"repro shard {shard_id}/{shards} "
                f"pid={sup.hub.pids[shard_id]} listening on "
                f"{host}:{sup.public_port}",
                flush=True,
            )
        print(
            f"repro admin listening on {host}:{admin.port}", flush=True
        )
        print(
            f"repro service listening on {host}:{sup.public_port}",
            flush=True,
        )
        try:
            await stop.wait()
        finally:
            await admin.close()
            sup.hub.detach()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        sup.shutdown()
    return 0


__all__ = ["run_sharded"]

"""Inter-shard plan replication bus (the sharded runtime's only IPC).

Each shard of a ``repro serve --shards N`` deployment owns a private
:class:`~repro.core.plan_cache.PlanLRU`; sharing the *object* across
processes is exactly what the shard_state_leaving_the_process pin
forbids.  What shards share instead is
the **work product**: a freshly derived
:class:`~repro.core.plan_cache.FrozenPlan` is ~224 B pickled, so
broadcasting the pickle and installing it on every peer makes the whole
fleet warm for the price of one derivation.

Topology is a star: the parent supervisor holds one
:class:`multiprocessing.Pipe` per shard (:class:`BusHub`); each shard
holds the other end (:class:`PlanBusEndpoint`).  A PLAN message from
shard *i* is fanned out by the hub to every other shard *verbatim* —
the raw payload bytes are forwarded, never re-encoded, so the pickle a
receiver unpickles is the exact pickle the deriver produced.  The same
bus carries shard hellos (readiness + pid) and stats pulls (the
``serve-stats --all-shards`` view), so the runtime needs exactly one
IPC channel per shard.

**One plan per key, fleet-wide.**  A content-hash key derives the same
plan wherever it is derived, but a ``family=`` key's plan comes from
whichever request carried the tag first — two shards that meet one
family at the same moment derive two different plans.  The hub sees
every PLAN in one order, so it arbitrates: it remembers the first
payload per key (:data:`HUB_PLAN_CAPACITY` keys, LRU), forwards that
one, and answers every later publisher of the key with the remembered
winner instead of forwarding the loser; whatever a shard receives from
the hub *replaces* what it holds.  Once the bus is drained every shard
runs the winner, so any shard's output for the key is byte-identical.
The remaining window is a loser's own replies between finishing its
local derive and reading the hub's answer (one pipe round trip).

Wire format (``PLAN_BUS_VERSION``, registered in
:mod:`repro.wire_registry`): every message is one
``Connection.send_bytes`` payload —

    u8 version | u8 kind | u16 shard_id | kind-specific body

* ``MSG_HELLO``  — u32 pid;
* ``MSG_PLAN``   — blob pickled cache key, blob pickled FrozenPlan;
* ``MSG_STATS_REQ``  — empty (hub -> shard pull);
* ``MSG_STATS_RESP`` — typed kv stats snapshot (shard -> hub).

The bus is a *trusted* channel — both ends are processes forked from one
``repro serve`` invocation, connected by an inherited pipe that never
touches a network socket.  That is why ``pickle`` is acceptable here
(same trust story as the pool's plan broadcast in
``repro/parallel/executor.py``, which the unpickling pin also exempts) while
the client-facing protocol remains pickle-free.  Payloads are still
bounded (:data:`MAX_BUS_MSG`) and version-checked: a malformed message
means a bug, and the endpoint drops it loudly rather than misparsing.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Mapping, Optional, Union

from multiprocessing.connection import Connection

from repro.core.plan_cache import FrozenPlan, PlanLRU
from repro.errors import ProtocolError
from repro.service.protocol import _Reader, _Writer

#: bump when the message layout changes (mirrored in wire_registry)
PLAN_BUS_VERSION = 2

#: one Connection.send_bytes payload may not exceed this (plans are
#: ~224 B pickled; stats snapshots a few KB — 1 MiB is generous)
MAX_BUS_MSG = 1 << 20

#: keys whose first-published payload the hub remembers (~0.5 KB each)
HUB_PLAN_CAPACITY = 4096

# message kinds
MSG_HELLO = 1
MSG_PLAN = 2
MSG_STATS_REQ = 3
MSG_STATS_RESP = 4

StatsDict = Dict[str, Union[int, float]]


# --------------------------------------------------------------------------
# message encode/decode
# --------------------------------------------------------------------------

def _header(kind: int, shard_id: int) -> _Writer:
    w = _Writer()
    w.u8(PLAN_BUS_VERSION)
    w.u8(kind)
    w.u16(shard_id)
    return w


def encode_hello(shard_id: int, pid: int) -> bytes:
    w = _header(MSG_HELLO, shard_id)
    w.u32(pid)
    return w.getvalue()


def encode_plan(shard_id: int, key: Hashable, plan: FrozenPlan) -> bytes:
    w = _header(MSG_PLAN, shard_id)
    w.blob(pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL))
    w.blob(pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL))
    body = w.getvalue()
    if len(body) > MAX_BUS_MSG:
        raise ProtocolError(
            f"plan bus message of {len(body)} bytes exceeds cap {MAX_BUS_MSG}"
        )
    return body


def encode_stats_req(shard_id: int) -> bytes:
    return _header(MSG_STATS_REQ, shard_id).getvalue()


def encode_stats_resp(shard_id: int, stats: Mapping[str, object]) -> bytes:
    w = _header(MSG_STATS_RESP, shard_id)
    w.kv(dict(stats))
    return w.getvalue()


class BusMessage:
    """One decoded bus message (kind-specific fields default to empty)."""

    __slots__ = ("kind", "shard_id", "pid", "key", "plan", "stats")

    def __init__(
        self,
        kind: int,
        shard_id: int,
        pid: int = 0,
        key: Hashable = None,
        plan: Optional[FrozenPlan] = None,
        stats: Optional[StatsDict] = None,
    ) -> None:
        self.kind = kind
        self.shard_id = shard_id
        self.pid = pid
        self.key = key
        self.plan = plan
        self.stats = stats


def decode_message(body: bytes) -> BusMessage:
    """Decode one bus payload; raises :class:`ProtocolError` on garbage."""
    if len(body) > MAX_BUS_MSG:
        raise ProtocolError(
            f"plan bus message of {len(body)} bytes exceeds cap {MAX_BUS_MSG}"
        )
    r = _Reader(body)
    version = r.u8()
    if version != PLAN_BUS_VERSION:
        raise ProtocolError(
            f"plan bus version {version} not supported (this side speaks "
            f"{PLAN_BUS_VERSION})"
        )
    kind = r.u8()
    shard_id = r.u16()
    if kind == MSG_HELLO:
        msg = BusMessage(kind, shard_id, pid=r.u32())
    elif kind == MSG_PLAN:
        key_raw = r.blob()
        plan_raw = r.blob()
        key = pickle.loads(key_raw)
        plan = pickle.loads(plan_raw)
        if not isinstance(plan, FrozenPlan):
            raise ProtocolError(
                f"plan bus PLAN payload is {type(plan).__name__}, "
                "not FrozenPlan"
            )
        msg = BusMessage(kind, shard_id, key=key, plan=plan)
    elif kind == MSG_STATS_REQ:
        msg = BusMessage(kind, shard_id)
    elif kind == MSG_STATS_RESP:
        msg = BusMessage(kind, shard_id, stats=r.kv())
    else:
        raise ProtocolError(f"unknown plan bus message kind {kind}")
    r.done()
    return msg


def _drain(conn: Connection) -> "list[bytes]":
    """Every payload currently readable on ``conn`` (non-blocking)."""
    out = []
    while conn.poll():
        out.append(conn.recv_bytes(MAX_BUS_MSG))
    return out


# --------------------------------------------------------------------------
# shard side
# --------------------------------------------------------------------------

class PlanBusEndpoint:
    """A shard's end of the replication bus.

    ``publish_plan`` is the :class:`PlanLRU` ``on_derive`` hook: it runs
    on whatever executor thread finished the derivation, so sends are
    serialized by a lock.  Publishing is best-effort — if the parent is
    gone the shard keeps serving (it just stops sharing), and the
    failure is counted, never raised into the compress path.

    ``attach`` wires the receiving half into the shard's event loop:
    an incoming PLAN message replaces whatever the local cache holds for
    its key (the hub only ever sends the fleet's winner), STATS_REQ
    pulls answer with the provided snapshot callable.
    """

    def __init__(self, conn: Connection, shard_id: int) -> None:
        self._conn = conn
        self.shard_id = shard_id
        self._send_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.plans_published = 0
        self.plans_received = 0
        self.plans_installed = 0
        self.publish_failures = 0

    # ------------------------------------------------------------- sending
    def _send(self, payload: bytes) -> bool:
        try:
            with self._send_lock:
                self._conn.send_bytes(payload)
            return True
        except (OSError, ValueError):
            # parent died or pipe closed: shard degrades to solo mode
            self.publish_failures += 1
            return False

    def publish_plan(self, key: Hashable, plan: FrozenPlan) -> None:
        """``PlanLRU.on_derive`` hook: broadcast one fresh derivation."""
        if self._send(encode_plan(self.shard_id, key, plan)):
            self.plans_published += 1

    def hello(self) -> None:
        """Announce readiness: this shard is listening."""
        self._send(encode_hello(self.shard_id, os.getpid()))

    # ----------------------------------------------------------- receiving
    def attach(
        self,
        loop: asyncio.AbstractEventLoop,
        plans: PlanLRU,
        stats_fn: Callable[[], StatsDict],
    ) -> None:
        self._loop = loop
        loop.add_reader(
            self._conn.fileno(), self._on_readable, plans, stats_fn
        )

    def detach(self) -> None:
        if self._loop is not None:
            self._loop.remove_reader(self._conn.fileno())
            self._loop = None

    def _on_readable(
        self, plans: PlanLRU, stats_fn: Callable[[], StatsDict]
    ) -> None:
        try:
            payloads = _drain(self._conn)
        except (EOFError, OSError):
            self.detach()
            return
        for payload in payloads:
            msg = decode_message(payload)
            if msg.kind == MSG_PLAN and msg.plan is not None:
                self.plans_received += 1
                if plans.install(msg.key, msg.plan):
                    self.plans_installed += 1
            elif msg.kind == MSG_STATS_REQ:
                self._send(encode_stats_resp(self.shard_id, stats_fn()))
            # HELLO/STATS_RESP are hub-bound; a shard ignores them

    # -------------------------------------------------------------- stats
    def stats(self) -> StatsDict:
        return {
            "bus_plans_published": self.plans_published,
            "bus_plans_received": self.plans_received,
            "bus_plans_installed": self.plans_installed,
            "bus_publish_failures": self.publish_failures,
        }


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------

class BusHub:
    """The parent supervisor's fan-out hub: one pipe per shard.

    PLAN payloads are forwarded to peers *verbatim* (raw bytes, no
    decode/re-encode round trip), which is what makes the replicated
    pickle byte-identical to the published one — and only the first
    payload per key is ever forwarded; a later publisher of that key is
    sent the first one back (module docstring).  HELLO messages populate
    :attr:`pids` and resolve :meth:`wait_ready`; STATS_REQ broadcasts
    collect per-shard snapshots for the aggregated ``serve-stats`` view.
    """

    def __init__(self) -> None:
        self._conns: Dict[int, Connection] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.pids: Dict[int, int] = {}
        self._winners: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self._hello_events: Dict[int, asyncio.Event] = {}
        self._stats_waiters: Dict[int, "asyncio.Future[StatsDict]"] = {}

    def add_shard(self, shard_id: int) -> Connection:
        """(Re)create the pipe for a shard; returns the child end.

        Used both at first spawn and at respawn after a crash — the old
        parent end (if any) is detached and closed, because a fresh
        process needs a fresh pipe.
        """
        import multiprocessing as mp

        old = self._conns.pop(shard_id, None)
        if old is not None:
            if self._loop is not None:
                self._loop.remove_reader(old.fileno())
            old.close()
        self.pids.pop(shard_id, None)
        parent_conn, child_conn = mp.Pipe(duplex=True)
        self._conns[shard_id] = parent_conn
        self._hello_events[shard_id] = asyncio.Event()
        if self._loop is not None:
            self._attach_one(shard_id, parent_conn)
        return child_conn

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        for shard_id, conn in self._conns.items():
            self._attach_one(shard_id, conn)

    def _attach_one(self, shard_id: int, conn: Connection) -> None:
        assert self._loop is not None
        self._loop.add_reader(conn.fileno(), self._on_readable, shard_id)

    def detach(self) -> None:
        if self._loop is not None:
            for conn in self._conns.values():
                self._loop.remove_reader(conn.fileno())
            self._loop = None

    def close(self) -> None:
        self.detach()
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()

    # ----------------------------------------------------------- receiving
    def _on_readable(self, shard_id: int) -> None:
        conn = self._conns.get(shard_id)
        if conn is None:
            return
        try:
            payloads = _drain(conn)
        except (EOFError, OSError):
            # shard died; the supervisor notices via the process sentinel
            # and calls add_shard again on respawn
            if self._loop is not None:
                self._loop.remove_reader(conn.fileno())
            return
        for payload in payloads:
            self._dispatch(shard_id, payload)

    def _dispatch(self, shard_id: int, payload: bytes) -> None:
        msg = decode_message(payload)
        if msg.kind == MSG_PLAN:
            winner = self._winners.get(msg.key)
            if winner is None:
                self._winners[msg.key] = payload
                if len(self._winners) > HUB_PLAN_CAPACITY:
                    self._winners.popitem(last=False)
                self._forward(shard_id, payload)
            else:
                self._winners.move_to_end(msg.key)
                self._send(shard_id, winner)
        elif msg.kind == MSG_HELLO:
            self.pids[msg.shard_id] = msg.pid
            event = self._hello_events.get(msg.shard_id)
            if event is not None:
                event.set()
        elif msg.kind == MSG_STATS_RESP and msg.stats is not None:
            waiter = self._stats_waiters.pop(msg.shard_id, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(msg.stats)

    def _send(self, shard_id: int, payload: bytes) -> None:
        try:
            self._conns[shard_id].send_bytes(payload)
        except (OSError, ValueError):
            # dead shard: respawn handling owns cleanup
            pass

    def _forward(self, origin: int, payload: bytes) -> None:
        for shard_id in self._conns:
            if shard_id != origin:
                self._send(shard_id, payload)

    # --------------------------------------------------------------- waits
    async def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every registered shard has sent HELLO."""
        waits = [
            event.wait() for event in self._hello_events.values()
        ]
        if waits:
            await asyncio.wait_for(asyncio.gather(*waits), timeout)

    async def collect_stats(
        self, timeout: float = 2.0
    ) -> Dict[int, StatsDict]:
        """Pull one snapshot from every live shard (missing shards skipped)."""
        assert self._loop is not None, "attach() first"
        waiters: Dict[int, "asyncio.Future[StatsDict]"] = {}
        for shard_id, conn in self._conns.items():
            try:
                conn.send_bytes(encode_stats_req(shard_id))
            except (OSError, ValueError):
                continue
            waiters[shard_id] = self._loop.create_future()
        self._stats_waiters.update(waiters)
        if waiters:
            await asyncio.wait(waiters.values(), timeout=timeout)
        out: Dict[int, StatsDict] = {}
        for shard_id, fut in waiters.items():
            if fut.done() and not fut.cancelled():
                # done future: the await resumes immediately, no block
                out[shard_id] = await fut
            else:
                fut.cancel()
                self._stats_waiters.pop(shard_id, None)
        return out


__all__ = [
    "PLAN_BUS_VERSION",
    "MAX_BUS_MSG",
    "HUB_PLAN_CAPACITY",
    "MSG_HELLO",
    "MSG_PLAN",
    "MSG_STATS_REQ",
    "MSG_STATS_RESP",
    "BusMessage",
    "encode_hello",
    "encode_plan",
    "encode_stats_req",
    "encode_stats_resp",
    "decode_message",
    "PlanBusEndpoint",
    "BusHub",
]

"""Central registry of the repo's wire formats.

Every byte that crosses a process or file boundary is described here:
the container/stream header (``repro/core/header.py``), the chunked
container footer (``repro/chunked/container.py``), and the service
protocol (``repro/service/protocol.py``).  A structure pin
(``wire_drift`` in ``tests/parallel/test_structure.py``) cross-checks
each wire module against its registered spec in both directions —

* a ``struct`` format string in the source that is **not** registered
  here, or one that is not a literal, fails the pin (you changed wire
  bytes without declaring it);
* a registered format that no longer appears in the source fails it
  (the registry drifted from reality), and so does a registered
  constant whose live value differs.

Changing wire bytes is therefore a two-file diff by construction: the
wire module **and** this registry, with the module's ``revision``
bumped.  The golden tests in ``tests/wire/test_wire_golden.py`` then
pin the registered constants to the actual bytes of the committed
golden fixtures, closing the loop registry ↔ source ↔ bytes-on-disk.

Format strings are stored *normalized*: f-string count fields collapse
to ``{}`` (``f"<{ndim}Q"`` registers as ``"<{}Q"``), because the repeat
count is data-dependent while the element type and endianness are the
wire contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

__all__ = ["WireSpec", "WIRE_SPECS", "spec_for"]


@dataclass(frozen=True)
class WireSpec:
    """The registered wire surface of one module."""

    module: str  # repo-relative path, e.g. "repro/core/header.py"
    #: bump when any registered byte layout changes; reviewers diff this
    revision: int
    #: normalized struct format strings the module may pack/unpack
    formats: Tuple[str, ...]
    #: module-level constants whose values ARE wire bytes
    constants: Mapping[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# revision history
#   header.py    rev 2: v2 header adds a flags byte ("<4sBBBBBd"); v1
#                ("<4sBBBBd") still readable (PR 2/3 compat contract)
#   header.py    rev 3: v3 adds a blake2s-4 header checksum ("<I") after
#                the dims and a blake2s-8 per-chunk digest ("<Q") per
#                index entry; v1/v2 still readable (PR 8)
#   container.py rev 1: footer chunk-count "<Q" (PR 3)
#   protocol.py  rev 2: protocol v2 adds the request meta kv after the
#                opcode (priority, client_id, attempt; deadline_ms joined
#                it later, no layout change) and a reason string to RETRY;
#                no cost field is on the wire, scalar codecs as in v1
#   protocol.py  rev 3: request meta gains the optional 'shard_key'
#                routing-affinity tag (sharded serve, DESIGN.md §14);
#                no layout change — meta kv is forward-extensible and
#                unknown keys are ignored, so PROTOCOL_VERSION stays 2
#   protocol.py  rev 4: 'shard_key' no longer written or read (the hash
#                router that consumed it is gone); an old client's tag
#                is ignored like any unknown meta key, no layout change
#   slab.py      rev 1: shared-memory batch descriptors — cross a process
#                boundary via the pool's pickle channel, not a socket,
#                but the tuple layout is an IPC contract all the same
#   slab.py      rev 2: adds the derive-trial job tuple (PR 21): the
#                sampled stack rides a slab under the rev 1 descriptor,
#                beside it a function by name and parent-built tuples
#                of floats and ints (one dict of int tuples)
#   slab.py      rev 3: registers the hyperslab decode part, which gains
#                the chunk's index entry (number, start, shape) after
#                '(blob, src, dst)' so a worker can refuse a chunk that
#                decodes to another shape; the other layouts are unchanged
#   slab.py      rev 4: the derive-trial job becomes the array job
#                'slab,array,fn,args' (worker runs fn(array, *args)): a
#                trial share ships its items as the first arg, and the
#                service ships a compress job's field under it (with
#                its bound and plan, if cached), whose worker returns the
#                plan it ran and the finished container (the arguments
#                now carry the job's chunk shape too; the layout is
#                unchanged)
#   slab.py      rev 5: SLAB_BATCH_VERSION and its '(slab_name,
#                descriptors, codec, ...)' batch tuple go: a chunk of a
#                compress batch and a share of a read's decode parts are
#                each one array job; the other layouts are unchanged
#   planbus.py   rev 1: inter-shard plan replication bus — one pipe
#                payload per message, 'u8 ver | u8 kind | u16 shard_id |
#                body', kinds HELLO/PLAN/STATS_REQ/STATS_RESP; scalars
#                ride protocol.py's _Reader/_Writer codecs, so no struct
#                formats appear in the module itself
#   planbus.py   rev 2: PLAN_BUS_VERSION 2 — HELLO drops its u32 backend
#                port (pid only; every shard listens on the public
#                port).  No reader for version 1: both ends of the bus
#                are always one build, forked from one invocation
#   planbus.py   retired with the shard fleet it connected: one serving
#                process with pool workers read 0.91x of two shards
#                (EXPERIMENTS.md §10), so no process reads or writes the
#                bus format any more
# ---------------------------------------------------------------------------

WIRE_SPECS: Tuple[WireSpec, ...] = (
    WireSpec(
        module="repro/core/header.py",
        revision=3,
        formats=(
            "<4sB",  # prefix: magic, version
            "<4sBBBBd",  # fixed v1: magic, version, codec, dtype, ndim, eb
            "<4sBBBBBd",  # fixed v2: ... + flags byte before eb
            "<{}Q",  # shape dims / chunk-entry starts
            "<{}I",  # chunk shape / chunk-entry shapes
            "<I",  # section count
            "<Q",  # section length / chunk-entry count
            "<QQ",  # chunk-entry (offset, nbytes)
        ),
        constants={
            "MAGIC": b"RPZ1",
            "VERSION": 2,
            "VERSION_CHECKSUM": 3,
            "FLAG_CHUNKED": 0x01,
        },
    ),
    WireSpec(
        module="repro/chunked/container.py",
        revision=1,
        formats=(
            "<Q",  # chunk count read from the index prelude
        ),
    ),
    WireSpec(
        module="repro/parallel/slab.py",
        revision=5,
        formats=(),  # descriptors ride multiprocessing's pickle, no struct
        constants={
            "SLAB_DESCRIPTOR_LAYOUT": "offset,shape,dtype",
            "ARRAY_JOB_LAYOUT": "slab,array,fn,args",
            "DECODE_PART_LAYOUT": "blob,src,dst,index,start,shape",
        },
    ),
    WireSpec(
        module="repro/service/protocol.py",
        revision=4,
        formats=(
            "<B",  # u8 scalar
            "<H",  # u16 scalar / string length
            "<I",  # u32 scalar / frame length prefix
            "<Q",  # u64 scalar
            "<q",  # i64 scalar
            "<d",  # f64 scalar
        ),
        constants={
            "PROTOCOL_VERSION": 2,
            "MAX_FRAME": 1 << 30,
            "OP_PING": 1,
            "OP_COMPRESS": 2,
            "OP_DECOMPRESS": 3,
            "OP_READ_SLAB": 4,
            "OP_STATS": 5,
            "ST_OK": 0,
            "ST_ERROR": 1,
            "ST_RETRY": 2,
        },
    ),
)

_BY_MODULE: Dict[str, WireSpec] = {s.module: s for s in WIRE_SPECS}


def spec_for(relpath: str) -> WireSpec | None:
    """Registered spec for a repo-relative module path, if any."""
    return _BY_MODULE.get(relpath)

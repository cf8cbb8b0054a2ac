"""Long-lived async compression service (serve, don't re-tune).

The library and CLI paths pay QoZ's derivation cost — sampling,
interpolator selection, (alpha, beta) tuning — on every call.  A service
holding state across requests can amortize it: this package wraps the
existing chunked subsystem and process-pool executor in an asyncio front
end with a bounded scheduler (job slots, two priority lanes), backpressure, and an
LRU of :class:`~repro.core.plan_cache.FrozenPlan` objects keyed by
(codec config, bound request, field signature), so warm traffic on a
field family executes plans instead of deriving them.  See DESIGN.md §9.

Admission is *cost-aware* (DESIGN.md §10): every request's work is
predicted in units from its metadata (elements x per-codec work class,
with a surcharge for cold plan derivation), and the service admits by
predicted units — not request count — with ``interactive`` / ``batch``
priority lanes and per-client token-bucket quotas.  A versioned STATS
snapshot (``repro serve-stats``) exposes queue depth in units,
admit/reject/retry counts by class, plan-cache hit rate, per-codec
throughput EWMAs, and slot fill.

Quickstart::

    # server
    #   $ repro serve --port 9753 --shards 2
    # client
    from repro.service import RemoteClient

    with RemoteClient(port=9753) as svc:
        blob = svc.compress(field, codec="qoz", rel_error_bound=1e-3)
        sub = svc.read(blob, (slice(0, 16), slice(None), slice(8, 24)))

    # or fully in-process (tests, embedding):
    from repro.service import ServiceClient

    with ServiceClient() as svc:
        blob = svc.compress(field, codec="qoz", rel_error_bound=1e-3)

Served bytes are identical to :func:`repro.chunked.compress_chunked`
output — the scheduler runs the same derivation, the same chunk
execution, and the same container writer, just asynchronously and with
the derivation half cached.

``repro serve --shards N`` (DESIGN.md §14) multiplies the whole stack
across N processes behind one address: each shard owns a full
:class:`ShardRuntime` (scheduler + admission + pool + plan cache), the
kernel distributes connections over their ``SO_REUSEPORT`` listeners,
and derived plans replicate shard-to-shard over a pipe bus whose hub
keeps one plan per key — a plan paid for once is warm everywhere, and
once the bus has settled the served bytes are identical regardless of
which shard answers.  Both flags turn a second core into request
throughput: ``--processes 2`` gives one service two job slots on two
pool workers (1.43x of ``--processes 1`` on one-chunk traffic), two
shards read 1.28x of that again (EXPERIMENTS.md §10).
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionLimits,
    AdmissionSnapshot,
    AdmitDecision,
    CostModel,
    ServiceMetrics,
    WorkEstimate,
    aggregate_snapshots,
    decide,
    format_stats_line,
)
from repro.service.client import RemoteClient, ServiceClient
from repro.service.scheduler import CompressionService, ServiceConfig
from repro.service.server import ServiceServer, ShardRuntime, run_server
from repro.service.sharding import run_sharded

__all__ = [
    "AdmissionController",
    "AdmissionLimits",
    "AdmissionSnapshot",
    "AdmitDecision",
    "CompressionService",
    "CostModel",
    "RemoteClient",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceServer",
    "ShardRuntime",
    "WorkEstimate",
    "aggregate_snapshots",
    "decide",
    "format_stats_line",
    "run_server",
    "run_sharded",
]

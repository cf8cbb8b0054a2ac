"""Long-lived async compression service (serve, don't re-tune).

The library and CLI paths pay QoZ's derivation cost — sampling,
interpolator selection, (alpha, beta) tuning — on every call.  A service
holding state across requests can amortize it: this package wraps the
existing chunked subsystem and process-pool executor in an asyncio front
end with a bounded scheduler (job slots, two priority lanes), backpressure, and an
LRU of :class:`~repro.core.plan_cache.FrozenPlan` objects keyed by
(codec config, bound request, field signature), so warm traffic on a
field family executes plans instead of deriving them.  See DESIGN.md §9.

Admission (DESIGN.md §10) bounds the jobs admitted and not yet finished
and, per ``client_id``, the megaelements requested per second (a token
bucket); admitted work runs in ``interactive`` / ``batch`` priority
lanes.  A versioned STATS snapshot (``repro serve-stats``) exposes
admit/reject/retry counts by class and reason, queue-wait and run-time
histograms per class (mean, p50/p90/p99), plan-cache hit rate and slot
fill — every raw value a count or a sum.

Quickstart::

    # server
    #   $ repro serve --port 9753 --processes 2
    # client
    from repro.service import RemoteClient

    with RemoteClient(port=9753) as svc:
        blob = svc.compress(field, codec="qoz", bound="rel:1e-3")
        sub = svc.read(blob, (slice(0, 16), slice(None), slice(8, 24)))

    # or fully in-process (tests, embedding):
    from repro.service import ServiceClient

    with ServiceClient() as svc:
        blob = svc.compress(field, codec="qoz", bound="rel:1e-3")

Served bytes are identical to ``repro.compress(..., chunked=True)``
output — the scheduler runs the same derivation, the same chunk
execution, and the same container writer, just asynchronously and with
the derivation half cached.

``--processes N`` is how the service uses more cores: all codec work
runs on N pool workers, a one-chunk request in one hand-over.  One
service with two workers read 0.91x of the two-process fleet that
``--shards 2`` used to run (24 alternating pairs; 0.89x on a host that
gives both cores fully), so the fleet is gone (EXPERIMENTS.md §10,
DESIGN.md §14).
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionLimits,
    AdmissionSnapshot,
    AdmitDecision,
    ServiceMetrics,
    decide,
    format_stats_line,
)
from repro.service.client import RemoteClient, ServiceClient
from repro.service.scheduler import CompressionService, ServiceConfig
from repro.service.server import ServiceServer, run_server

__all__ = [
    "AdmissionController",
    "AdmissionLimits",
    "AdmissionSnapshot",
    "AdmitDecision",
    "CompressionService",
    "RemoteClient",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceServer",
    "decide",
    "format_stats_line",
    "run_server",
]

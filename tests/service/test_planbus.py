"""Unit tests for the sharded-runtime building blocks (no subprocesses).

Covers the plan-replication bus codec (versioned wire format, pickle
byte-identity), the :class:`PlanLRU` replication hooks, the hub's
one-plan-per-key arbitration (a ``BusHub`` and two endpoints over real
pipes, in this process), and the all-shards stats aggregation — the
pieces ``repro serve --shards N`` composes.
"""

import asyncio
import pickle

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core.plan_cache import FrozenPlan, PlanLRU
from repro.errors import ProtocolError
from repro.service import ServiceMetrics, aggregate_snapshots
from repro.service import planbus, protocol

CLASSES = st.sampled_from(protocol.PRIORITIES)
#: seconds from microseconds to past the last histogram edge (100 s)
SECONDS = st.one_of(
    st.floats(0, 1e-3), st.floats(0, 1.0), st.floats(0, 300.0),
)
#: one ServiceMetrics transition: (method name, *arguments)
METRIC_EVENTS = st.one_of(
    st.tuples(st.just("admit"), CLASSES, st.integers(0, 2)),
    st.tuples(
        st.just("reject"), CLASSES, st.sampled_from(("queue-full", "client-quota")),
    ),
    st.tuples(
        st.just("job_started"), CLASSES, SECONDS, st.integers(1, 4),
        st.integers(1, 4),
    ),
    st.tuples(
        st.just("job_finished"), CLASSES,
        st.sampled_from(("compress", "decompress", "read")), st.booleans(),
        st.one_of(st.none(), SECONDS), st.sampled_from(("", "qoz", "zfp")),
    ),
)


class FakeClock:
    def __call__(self):
        return 0.0


def make_plan(eb=1e-3, alpha=1.5):
    return FrozenPlan(
        codec="qoz", eb=eb, alpha=alpha, beta=2.0,
        interpolators={1: (1, 0), 2: (0, 0)}, anchor_stride=64,
    )


class TestBusCodec:
    def test_plan_roundtrip_preserves_pickle_bytes(self):
        plan = make_plan()
        key = ("qoz", 1e-3, "climate")
        body = planbus.encode_plan(3, key, plan)
        msg = planbus.decode_message(body)
        assert msg.kind == planbus.MSG_PLAN
        assert msg.shard_id == 3
        assert msg.key == key
        # the replication contract: the installed plan pickles to the
        # exact bytes the deriver published (byte-identity downstream)
        assert pickle.dumps(msg.plan, protocol=pickle.HIGHEST_PROTOCOL) == \
            pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)

    def test_hello_roundtrip(self):
        msg = planbus.decode_message(planbus.encode_hello(1, 4242))
        assert (msg.kind, msg.shard_id, msg.pid) == (
            planbus.MSG_HELLO, 1, 4242,
        )

    def test_stats_roundtrip(self):
        stats = {"admitted_interactive": 7, "batch_fill_ewma": 0.25}
        msg = planbus.decode_message(planbus.encode_stats_resp(0, stats))
        assert msg.kind == planbus.MSG_STATS_RESP
        assert msg.stats == stats

    def test_wrong_version_rejected(self):
        body = bytearray(planbus.encode_hello(0, 2))
        body[0] = 99
        with pytest.raises(ProtocolError, match="version 99"):
            planbus.decode_message(bytes(body))

    def test_unknown_kind_rejected(self):
        body = bytearray(planbus.encode_hello(0, 2))
        body[1] = 77
        with pytest.raises(ProtocolError, match="kind 77"):
            planbus.decode_message(bytes(body))

    def test_plan_payload_must_be_a_frozen_plan(self):
        w = planbus._header(planbus.MSG_PLAN, 0)
        w.blob(pickle.dumps("key"))
        w.blob(pickle.dumps({"not": "a plan"}))
        with pytest.raises(ProtocolError, match="not FrozenPlan"):
            planbus.decode_message(w.getvalue())


class TestPlanLRUReplication:
    def test_install_replaces_and_counts(self):
        """What the bus delivers is the fleet's plan: it replaces a
        different resident one (in place — no eviction, no re-derive)
        and an equal one is a no-op."""
        lru = PlanLRU(capacity=2)
        local = make_plan(alpha=1.0)
        fleet = make_plan(alpha=9.0)
        lru.put("k", local)
        lru.put("newer", local)
        assert lru.install("k", fleet)
        assert not lru.install("k", make_plan(alpha=9.0))  # equal: no-op
        assert lru.get_or_derive("k", lambda: local) is fleet
        stats = lru.stats()
        assert stats["plan_replicated"] == 1
        assert stats["plan_derives"] == 0
        assert stats["plan_cache_size"] == 2

    def test_install_respects_capacity(self):
        lru = PlanLRU(capacity=2)
        for i in range(5):
            lru.install(i, make_plan())
        assert lru.stats()["plan_cache_size"] == 2

    def test_on_derive_hook_fires_only_on_derivation(self):
        published = []
        lru = PlanLRU(capacity=4, on_derive=lambda k, p: published.append(k))
        plan = make_plan()
        lru.get_or_derive("a", lambda: plan)
        lru.get_or_derive("a", lambda: plan)  # hit: no publish
        lru.install("b", plan)  # replicated in: no re-publish (no storm)
        assert published == ["a"]


def scripted_fleet(loop, capacities=(8, 8)):
    """A ``BusHub`` and one endpoint + cache per shard, over real pipes,
    all in this process and not yet attached to ``loop``."""
    hub = planbus.BusHub()
    ends, caches = [], []
    for shard_id, capacity in enumerate(capacities):
        end = planbus.PlanBusEndpoint(hub.add_shard(shard_id), shard_id)
        ends.append(end)
        caches.append(PlanLRU(capacity, on_derive=end.publish_plan))

    def attach():
        hub.attach(loop)
        for end, cache in zip(ends, caches):
            end.attach(loop, cache, dict)

    def detach():
        for end in ends:
            end.detach()
        hub.close()

    return hub, caches, attach, detach


async def settle(caches, key, timeout=5.0):
    """Run the loop until every cache holds one plan for ``key`` (or the
    timeout passes), then a little longer so late messages land too."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        held = [cache.peek(key) for cache in caches]
        if None not in held and all(p == held[0] for p in held):
            break
        await asyncio.sleep(0.01)
    await asyncio.sleep(0.05)


def dumps(plan):
    return pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)


class TestFleetConvergence:
    """One key, one plan, fleet-wide — whoever derived what, and when."""

    KEY = ("qoz", (), "rel", 1e-3, ("family", "F", "float32"))

    def test_racing_derivations_of_one_family_key_converge(self):
        """Both shards derive (different data, so different plans) and
        publish before either reads the bus: the hub keeps the first
        payload it sees and sends the loser that one back."""
        plan_a, plan_b = make_plan(alpha=1.0), make_plan(alpha=2.0)

        async def scenario():
            hub, caches, attach, detach = scripted_fleet(
                asyncio.get_running_loop()
            )
            try:
                caches[0].get_or_derive(self.KEY, lambda: plan_a)
                caches[1].get_or_derive(self.KEY, lambda: plan_b)
                attach()
                await settle(caches, self.KEY)
                return [dumps(cache.peek(self.KEY)) for cache in caches]
            finally:
                detach()

        held = asyncio.run(scenario())
        assert held[0] == held[1]
        assert held[0] in (dumps(plan_a), dumps(plan_b))

    def test_rederiving_an_evicted_key_ends_on_the_fleets_plan(self):
        """Shard 1 (capacity 1) loses the key to its LRU, derives it
        again from other data, and still ends up with the plan shard 0
        has been serving all along — installs never re-publish, so the
        bus goes quiet afterwards."""
        fleet_plan, other, late = (
            make_plan(alpha=1.0), make_plan(alpha=3.0), make_plan(alpha=2.0),
        )

        async def scenario():
            hub, caches, attach, detach = scripted_fleet(
                asyncio.get_running_loop(), capacities=(8, 1)
            )
            try:
                attach()
                caches[0].get_or_derive(self.KEY, lambda: fleet_plan)
                await settle(caches, self.KEY)
                assert caches[1].peek(self.KEY) == fleet_plan
                caches[1].get_or_derive("another-key", lambda: other)
                assert caches[1].peek(self.KEY) is None  # evicted
                assert caches[1].get_or_derive(self.KEY, lambda: late) is late
                await settle(caches, self.KEY)
                return [cache.peek(self.KEY) for cache in caches], [
                    cache.stats()["plan_derives"] for cache in caches
                ]
            finally:
                detach()

        held, derives = asyncio.run(scenario())
        assert held == [fleet_plan, fleet_plan]
        assert derives == [1, 2]  # only real derivations are counted

    def test_hub_forgets_old_keys_and_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(planbus, "HUB_PLAN_CAPACITY", 2)

        async def scenario():
            hub, caches, attach, detach = scripted_fleet(
                asyncio.get_running_loop()
            )
            try:
                attach()
                for i in range(5):
                    caches[0].get_or_derive(i, make_plan)
                await settle(caches, 4)
                return len(hub._winners), caches[1].stats()["plan_replicated"]
            finally:
                detach()

        assert asyncio.run(scenario()) == (2, 5)


class TestOldClientFrames:
    def test_shard_key_meta_from_an_old_client_is_ignored(self):
        """Protocol rule: unknown meta keys are skipped.  ``shard_key``
        (written by clients up to wire-registry revision 3) is now one
        of them, so an old client keeps working against a new server."""
        import numpy as np

        req = protocol.CompressRequest(
            data=np.arange(16, dtype=np.float32).reshape(4, 4),
            codec="qoz", error_bound=1e-3, family="climate",
            priority="batch",
        )
        new = protocol.encode_request(req)
        # hand-build the old frame: same body, one more meta entry
        w = protocol._Writer()
        w.u8(protocol.PROTOCOL_VERSION)
        w.u8(protocol.OP_COMPRESS)
        w.kv({"priority": "batch", "shard_key": "pin-7"})
        r = protocol._Reader(new)
        r.u8(), r.u8(), r.kv()
        old = w.getvalue() + new[r._pos:]
        assert old != new
        a, b = protocol.decode_request(old), protocol.decode_request(new)
        assert not hasattr(a, "shard_key")
        np.testing.assert_array_equal(a.data, b.data)
        a.data = b.data = None
        assert a == b


class TestAggregateSnapshots:
    def snaps(self):
        return {
            0: {
                "stats_version": 3, "shard_id": 0, "n_shards": 2,
                "admitted_interactive": 3, "plan_cache_hits": 3,
                "plan_cache_misses": 1, "slot_busy_sum": 1,
                "slot_count_sum": 2, "uptime_s": 10.0,
            },
            1: {
                "stats_version": 3, "shard_id": 1, "n_shards": 2,
                "admitted_interactive": 5, "plan_cache_hits": 1,
                "plan_cache_misses": 3, "slot_busy_sum": 3,
                "slot_count_sum": 6, "uptime_s": 12.0,
            },
        }

    def test_counters_sum_and_config_maxes(self):
        agg = aggregate_snapshots(self.snaps())
        assert agg["admitted_interactive"] == 8
        assert agg["stats_version"] == 3  # config key: max, not sum
        assert agg["uptime_s"] == 12.0
        assert agg["n_shards"] == 2
        assert agg["shards_reporting"] == 2
        assert "shard_id" not in agg  # meaningless across the fleet

    def test_hit_rate_recomputed_from_summed_counts(self):
        agg = aggregate_snapshots(self.snaps())
        assert agg["plan_cache_hit_rate"] == pytest.approx(4 / 8)
        assert agg["batch_fill_ewma"] == pytest.approx(4 / 8)

    def test_fleet_mean_weighs_every_job(self):
        # averaging the shards' means would report ~252 ms of queue wait
        busy, idle = ServiceMetrics(), ServiceMetrics()
        for _ in range(1000):
            busy.job_started("interactive", 0.005, 1, 1)
        idle.job_started("interactive", 0.5, 1, 1)
        agg = aggregate_snapshots({0: busy.snapshot(), 1: idle.snapshot()})
        assert agg["queue_wait_ms_interactive"] == pytest.approx(
            (1000 * 5 + 500) / 1001, abs=1e-3
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @seed(20261015)
    @settings(max_examples=60, database=None, deadline=None)
    @given(stream=st.lists(
        st.tuples(st.integers(0, 2), METRIC_EVENTS), max_size=80,
    ))
    def test_merge_by_addition_equals_one_registry(self, n, stream):
        """Split one event stream over ``n`` registries: the aggregate of
        their snapshots is the snapshot of one registry fed it all, key
        for key — counters, buckets, means and percentiles."""
        clock = FakeClock()
        whole = ServiceMetrics(clock)
        parts = [ServiceMetrics(clock) for _ in range(n)]
        for where, (event, *args) in stream:
            for registry in (whole, parts[where % n]):
                getattr(registry, event)(*args)
        agg = aggregate_snapshots({i: p.snapshot() for i, p in enumerate(parts)})
        assert agg.pop("shards_reporting") == n
        assert agg == whole.snapshot()

    def test_per_shard_rows_prefixed(self):
        agg = aggregate_snapshots(self.snaps(), per_shard=True)
        assert agg["shard0_admitted_interactive"] == 3
        assert agg["shard1_admitted_interactive"] == 5
        # reconciliation: per-shard rows sum to the aggregate
        assert agg["admitted_interactive"] == (
            agg["shard0_admitted_interactive"]
            + agg["shard1_admitted_interactive"]
        )

    def test_empty_fleet(self):
        agg = aggregate_snapshots({})
        assert agg["shards_reporting"] == 0

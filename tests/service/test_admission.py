"""Property tests for the cost model and the pure admission policy.

The two load-bearing properties the module docstring promises:

* predicted cost is *monotone in element count* for every codec and
  request kind — admission can rank requests by size without ever being
  inverted by a bigger request predicting cheaper;
* :func:`repro.service.admission.decide` is *pure* — replaying the same
  (units, priority, snapshot, limits) tuple reproduces the decision
  bit-for-bit, including the retry hint.

Both are swept over seeded-numpy random inputs, so a regression shows up
as a deterministic counterexample, not a flake.
"""

import math

import numpy as np
import pytest

from repro.core.plan_cache import PlanLRU, field_signature, plan_cache_key
from repro.service.admission import (
    CODEC_WORK_CLASS,
    DEFAULT_DRAIN_RATE,
    MIN_UNITS,
    AdmissionController,
    AdmissionLimits,
    AdmissionSnapshot,
    CostModel,
    ServiceMetrics,
    TokenBucket,
    decide,
    format_stats_line,
)
from repro.service.protocol import (
    CompressRequest,
    DecompressRequest,
    PingRequest,
    ReadSlabRequest,
)


def compress_req(n_elements, codec="qoz", **kw):
    kw.setdefault("rel_error_bound", 1e-3)
    return CompressRequest(
        data=np.zeros(int(n_elements), dtype=np.float32), codec=codec, **kw
    )


class TestCostModel:
    def test_monotone_in_elements_per_codec(self):
        rng = np.random.default_rng(1234)
        model = CostModel()
        for codec in CODEC_WORK_CLASS:
            sizes = np.sort(rng.integers(1, 2_000_000, size=12))
            units = [
                model.predict(compress_req(n, codec=codec)).units
                for n in sizes
            ]
            assert units == sorted(units), f"non-monotone for {codec}"

    def test_monotone_decompress(self):
        from repro.compressors import get_compressor

        rng = np.random.default_rng(99)
        model = CostModel()
        comp = get_compressor("zfp")
        units = []
        for n in (8, 64, 512):
            blob = comp.compress(
                rng.random((n, 8, 8)).astype(np.float32), error_bound=1e-2
            )
            units.append(
                model.predict(DecompressRequest(blob=blob)).units
            )
        assert units == sorted(units)
        # garbage blobs still get a finite, size-monotone estimate
        garbage = [
            model.predict(DecompressRequest(blob=b"\xff" * n)).units
            for n in (64, 4096, 1 << 20)
        ]
        assert garbage == sorted(garbage)
        assert all(math.isfinite(u) for u in garbage)

    def test_cold_costs_more_than_warm(self):
        model = CostModel()
        plans = PlanLRU(capacity=8)
        req = compress_req(500_000, codec="qoz", family="f")
        cold = model.predict(req, plans)
        assert not cold.warm
        key = plan_cache_key(
            "qoz", {}, "rel", 1e-3, field_signature(req.data, "f")
        )
        from repro.core.plan_cache import FrozenPlan

        plans.put(key, FrozenPlan(codec="qoz", eb=1.0, interpolators={1: (0, 0)}))
        warm = model.predict(req, plans)
        assert warm.warm
        assert cold.units > warm.units

    def test_non_plan_codec_has_no_surcharge(self):
        model = CostModel()
        est = model.predict(compress_req(1_000_000, codec="zfp"))
        assert est.units == pytest.approx(CODEC_WORK_CLASS["zfp"])

    def test_floor_and_other_kinds(self):
        model = CostModel()
        assert model.predict(compress_req(1)).units >= MIN_UNITS
        assert model.predict(PingRequest()).units == MIN_UNITS
        est = model.predict(
            ReadSlabRequest(source=b"junk", slab=(slice(0, 4), slice(0, 4)))
        )
        assert est.kind == "read" and est.units >= MIN_UNITS

    def test_read_estimate_uses_slab_extent(self):
        model = CostModel()
        small = model.predict(
            ReadSlabRequest(source=b"x", slab=(slice(0, 4), slice(0, 4)))
        )
        big = model.predict(
            ReadSlabRequest(source=b"x", slab=(slice(0, 4000), slice(0, 4000)))
        )
        assert big.units > small.units


class TestDecidePurity:
    def random_snapshot(self, rng):
        return AdmissionSnapshot(
            queued_jobs=int(rng.integers(0, 100)),
            interactive_units=float(rng.uniform(0, 80)),
            batch_units=float(rng.uniform(0, 80)),
            drain_rate=float(rng.uniform(0.01, 50)),
            client_tokens=float(rng.uniform(-50, 100)),
            client_rate=float(rng.uniform(0.1, 64)),
            client_burst=float(rng.uniform(1, 100)),
        )

    def test_deterministic_given_snapshot(self):
        rng = np.random.default_rng(777)
        limits = AdmissionLimits()
        for _ in range(500):
            snap = self.random_snapshot(rng)
            units = float(rng.uniform(0, 40))
            priority = ["interactive", "batch"][int(rng.integers(0, 2))]
            first = decide(units, priority, snap, limits)
            for _ in range(3):
                again = decide(units, priority, snap, limits)
                assert again == first

    def test_rejections_always_carry_positive_retry_after(self):
        rng = np.random.default_rng(4242)
        limits = AdmissionLimits()
        rejected = 0
        for _ in range(500):
            snap = self.random_snapshot(rng)
            d = decide(
                float(rng.uniform(0, 40)),
                ["interactive", "batch"][int(rng.integers(0, 2))],
                snap,
                limits,
            )
            if not d.admitted:
                rejected += 1
                assert d.retry_after > 0.0
                assert limits.min_retry_after <= d.retry_after <= limits.max_retry_after
                assert d.reason in (
                    "queue-full", "client-quota", "class-capacity", "capacity"
                )
        assert rejected > 0  # the sweep must actually exercise rejection

    def test_unknown_priority_rejected(self):
        snap = AdmissionSnapshot(0, 0.0, 0.0)
        with pytest.raises(ValueError, match="priority"):
            decide(1.0, "urgent", snap, AdmissionLimits())


class TestPolicyRules:
    LIMITS = AdmissionLimits(max_queue_jobs=10, max_work_units=10.0,
                             batch_share=0.5)

    def test_empty_queue_admits_any_size(self):
        snap = AdmissionSnapshot(queued_jobs=0, interactive_units=0.0,
                                 batch_units=0.0)
        assert decide(1e6, "interactive", snap, self.LIMITS).admitted
        assert decide(1e6, "batch", snap, self.LIMITS).admitted

    def test_capacity_rejects_when_backlogged(self):
        snap = AdmissionSnapshot(queued_jobs=3, interactive_units=9.5,
                                 batch_units=0.0)
        d = decide(2.0, "interactive", snap, self.LIMITS)
        assert not d.admitted and d.reason == "capacity"

    def test_batch_class_budget_tighter_than_total(self):
        # 4 of 10 units queued, all batch: one more big batch job would
        # blow the 5-unit batch share but interactive still fits
        snap = AdmissionSnapshot(queued_jobs=2, interactive_units=0.0,
                                 batch_units=4.0)
        d = decide(2.0, "batch", snap, self.LIMITS)
        assert not d.admitted and d.reason == "class-capacity"
        assert decide(2.0, "interactive", snap, self.LIMITS).admitted

    def test_full_bucket_admits_oversized_request(self):
        snap = AdmissionSnapshot(
            queued_jobs=1, interactive_units=1.0, batch_units=0.0,
            client_tokens=5.0, client_rate=1.0, client_burst=5.0,
        )
        assert decide(8.0, "interactive", snap, self.LIMITS).admitted

    def test_drained_bucket_rejects_with_refill_hint(self):
        snap = AdmissionSnapshot(
            queued_jobs=1, interactive_units=1.0, batch_units=0.0,
            client_tokens=1.0, client_rate=2.0, client_burst=5.0,
        )
        d = decide(3.0, "interactive", snap, self.LIMITS)
        assert not d.admitted and d.reason == "client-quota"
        assert d.retry_after == pytest.approx(1.0)  # (3 - 1) / 2 u/s

    def test_queue_full_wins_over_everything(self):
        snap = AdmissionSnapshot(queued_jobs=10, interactive_units=0.5,
                                 batch_units=0.0, client_tokens=0.0,
                                 client_rate=1.0, client_burst=5.0)
        assert decide(0.1, "interactive", snap, self.LIMITS).reason == "queue-full"


class TestTokenBucket:
    def test_refill_and_debt_bounds(self):
        b = TokenBucket(rate=2.0, burst=10.0, now=0.0)
        assert b.tokens == 10.0  # starts full
        b.consume(25.0, now=0.0)  # oversized: debt capped at one burst
        assert b.tokens == -10.0
        assert b.refill(now=5.0) == pytest.approx(0.0)
        assert b.refill(now=100.0) == 10.0  # never above burst
        b.refill(now=50.0)  # time cannot run backwards
        assert b.stamp == 100.0


class TestAdmissionController:
    def make(self, **kw):
        clock = FakeClock()
        ctrl = AdmissionController(
            AdmissionLimits(max_queue_jobs=4, max_work_units=8.0),
            clock=clock, **kw,
        )
        return ctrl, clock

    def test_admit_release_roundtrip(self):
        ctrl, _ = self.make()
        assert ctrl.try_admit(3.0, "interactive").admitted
        assert ctrl.snapshot().interactive_units == 3.0
        ctrl.release(3.0, "interactive")
        snap = ctrl.snapshot()
        assert snap.interactive_units == 0.0 and snap.queued_jobs == 0

    def test_client_bucket_lru_bounded(self):
        ctrl, _ = self.make(max_clients=3)
        for i in range(6):
            ctrl.try_admit(0.5, "interactive", client_id=f"c{i}")
        assert ctrl.stats()["quota_clients_tracked"] == 3

    def test_drain_ewma_feeds_snapshot(self):
        ctrl, _ = self.make()
        ctrl.observe_drain(10.0, 2.0)  # 5 units/s
        assert ctrl.snapshot().drain_rate == pytest.approx(5.0)
        ctrl.observe_drain(0.0, 1.0)  # zero-work samples are ignored
        assert ctrl.snapshot().drain_rate == pytest.approx(5.0)

    def test_default_drain_before_any_completion(self):
        ctrl, _ = self.make()
        assert ctrl.snapshot().drain_rate == DEFAULT_DRAIN_RATE


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestServiceMetrics:
    def test_snapshot_counts_and_layout(self):
        m = ServiceMetrics(clock=FakeClock())
        m.admit("interactive")
        m.admit("interactive", attempt=2)
        m.reject("batch", "class-capacity")
        m.job_started("interactive", wait_s=0.004, slot_fill=0.5)
        m.job_finished("interactive", "compress", ok=True,
                       duration_s=0.1, nbytes=4_000_000, codec="qoz")
        m.job_finished("interactive", "compress", ok=False,
                       duration_s=0.0, nbytes=0, codec="qoz")
        m.connection_opened()
        m.connection_closed()
        s = m.snapshot()
        assert s["stats_version"] >= 1
        assert s["admitted_interactive"] == 2
        assert s["retried_interactive"] == 1
        assert s["rejected_batch"] == 1
        assert s["rejects_class_capacity"] == 1
        assert s["completed_interactive"] == 1
        assert s["failed_interactive"] == 1
        assert s["jobs_codec_qoz"] == 2
        assert s["throughput_qoz_mbps"] == pytest.approx(40.0)
        assert s["batch_fill_ewma"] == pytest.approx(0.5)
        assert s["connections_total"] == 1 and s["connections_open"] == 0
        # the wire frame is a typed kv map: every value must be int/float
        assert all(isinstance(v, (int, float)) for v in s.values())

    def test_stats_line_renders_any_snapshot(self):
        m = ServiceMetrics(clock=FakeClock())
        line = format_stats_line(m.snapshot())
        assert line.startswith("repro service stats:")
        assert "admit=0" in line and "reject=0" in line

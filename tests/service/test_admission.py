"""Property tests for request sizing, the pure admission policy and the
metrics registry.

The load-bearing properties the module docstring promises:

* :func:`repro.service.admission.request_units` is *monotone in the
  declared size* for every request kind, and finite for garbage — the
  quota can never be inverted by a bigger request drawing less;
* :func:`repro.service.admission.decide` is *pure* — replaying the same
  (units, snapshot, limits) tuple reproduces the decision bit-for-bit,
  including the retry hint;
* the snapshot holds counts and sums, its means and percentiles
  derived from them.

Swept over seeded-numpy random inputs, so a regression shows up as a
deterministic counterexample, not a flake.
"""

import math

import numpy as np
import pytest

from repro.service.admission import (
    HIST_EDGES_MS,
    MIN_UNITS,
    AdmissionController,
    AdmissionLimits,
    AdmissionSnapshot,
    ServiceMetrics,
    TokenBucket,
    decide,
    format_stats_line,
    request_units,
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


class TestRequestUnits:
    def test_compress_is_declared_megaelements(self):
        rng = np.random.default_rng(1234)
        sizes = np.sort(rng.integers(1, 2_000_000, size=12))
        units = [request_units(compress_req(n)) for n in sizes]
        assert units == sorted(units)
        # a warm qoz/sz3 compress drew exactly this under the cost model
        assert request_units(compress_req(1_000_000)) == pytest.approx(1.0)

    def test_monotone_decompress(self):
        from repro.compressors import get_compressor

        rng = np.random.default_rng(99)
        comp = get_compressor("zfp")
        units = []
        for n in (8, 64, 512):
            blob = comp.compress(
                rng.random((n, 8, 8)).astype(np.float32), error_bound=1e-2
            )
            units.append(request_units(DecompressRequest(blob=blob)))
            assert units[-1] == pytest.approx(max(MIN_UNITS, n * 64 / 1e6))
        assert units == sorted(units)
        # garbage blobs still get a finite, size-monotone number
        garbage = [
            request_units(DecompressRequest(blob=b"\xff" * n))
            for n in (64, 4096, 1 << 20)
        ]
        assert garbage == sorted(garbage)
        assert all(math.isfinite(u) for u in garbage)

    def test_monotone_read_in_slab_extent(self):
        rng = np.random.default_rng(7)
        extents = np.sort(rng.integers(1, 4000, size=10))
        units = [
            request_units(ReadSlabRequest(
                source=b"x", slab=(slice(0, int(n)), slice(0, 1000)),
            ))
            for n in extents
        ]
        assert units == sorted(units)
        assert units[-1] > units[0]

    def test_read_open_ends_from_the_container_header(self):
        from repro.chunked import compress_chunked

        blob = compress_chunked(
            np.zeros((16, 64, 32), dtype=np.float32), codec="zfp",
            error_bound=1e-3, chunks=32,
        )
        read = ReadSlabRequest(source=blob, slab=(slice(0, 4), slice(None)))
        assert request_units(read) == pytest.approx(4 * 64 * 32 / 1e6)
        # a path-based read with an open end cannot be sized: 1.0
        path = ReadSlabRequest(source="f.rpz", slab=(slice(0, 4), slice(None)))
        assert request_units(path) == 1.0

    def test_floor_and_other_kinds(self):
        assert request_units(compress_req(1)) == MIN_UNITS
        assert request_units(PingRequest()) == MIN_UNITS
        junk = ReadSlabRequest(source=b"junk", slab=(slice(0, 4), slice(0, 4)))
        assert request_units(junk) >= MIN_UNITS


class TestDecidePurity:
    def random_snapshot(self, rng):
        return AdmissionSnapshot(
            queued_jobs=int(rng.integers(0, 100)),
            mean_run_s=float(rng.uniform(0, 10)),
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
            first = decide(units, snap, limits)
            for _ in range(3):
                assert decide(units, snap, limits) == first

    def test_rejections_always_carry_positive_retry_after(self):
        rng = np.random.default_rng(4242)
        limits = AdmissionLimits()
        reasons = set()
        for _ in range(500):
            d = decide(float(rng.uniform(0, 40)), self.random_snapshot(rng), limits)
            if not d.admitted:
                reasons.add(d.reason)
                assert limits.min_retry_after <= d.retry_after <= limits.max_retry_after
        # the sweep must actually exercise both rules
        assert reasons == {"queue-full", "client-quota"}


class TestPolicyRules:
    LIMITS = AdmissionLimits(max_queue_jobs=10)

    def test_below_the_bound_without_a_quota_admits_any_size(self):
        snap = AdmissionSnapshot(queued_jobs=9)
        assert decide(1e6, snap, self.LIMITS).admitted

    def test_full_bucket_admits_oversized_request(self):
        snap = AdmissionSnapshot(
            queued_jobs=1, client_tokens=5.0, client_rate=1.0, client_burst=5.0,
        )
        assert decide(8.0, snap, self.LIMITS).admitted

    def test_drained_bucket_rejects_with_refill_hint(self):
        snap = AdmissionSnapshot(
            queued_jobs=1, client_tokens=1.0, client_rate=2.0, client_burst=5.0,
        )
        d = decide(3.0, snap, self.LIMITS)
        assert not d.admitted and d.reason == "client-quota"
        assert d.retry_after == pytest.approx(1.0)  # (3 - 1) / 2 per s

    def test_queue_full_wins_over_everything(self):
        snap = AdmissionSnapshot(queued_jobs=10, client_tokens=0.0,
                                 client_rate=1.0, client_burst=5.0)
        assert decide(0.1, snap, self.LIMITS).reason == "queue-full"

    @pytest.mark.parametrize("mean_run_s, hint", [
        (0.0, 0.05), (0.3, 0.3), (60.0, 5.0),
    ])
    def test_queue_full_hints_the_mean_run_time_clamped(self, mean_run_s, hint):
        snap = AdmissionSnapshot(queued_jobs=10, mean_run_s=mean_run_s)
        assert decide(0.1, snap, self.LIMITS).retry_after == hint


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


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestAdmissionController:
    def make(self, max_queue_jobs=2, **kw):
        return AdmissionController(
            AdmissionLimits(max_queue_jobs=max_queue_jobs),
            clock=FakeClock(), **kw,
        )

    def test_admit_release_roundtrip(self):
        ctrl = self.make()
        assert ctrl.try_admit(3.0).admitted
        assert ctrl.try_admit(3.0).admitted
        assert ctrl.try_admit(3.0).reason == "queue-full"
        assert ctrl.stats()["admission_jobs"] == 2
        ctrl.release()
        ctrl.release()
        assert ctrl.snapshot().queued_jobs == 0
        assert ctrl.try_admit(3.0).admitted

    def test_client_bucket_lru_bounded(self):
        ctrl = self.make(max_queue_jobs=10, max_clients=3)
        for i in range(6):
            ctrl.try_admit(0.5, client_id=f"c{i}")
        assert ctrl.stats()["quota_clients_tracked"] == 3

    def test_queue_full_hint_reads_the_mean_run_time(self):
        metrics = ServiceMetrics(clock=FakeClock())
        ctrl = self.make(mean_run_s=metrics.mean_run_s)
        for run_s in (0.2, 0.4):
            metrics.job_finished("interactive", "compress", True, run_s)
        ctrl.try_admit(1.0)
        ctrl.try_admit(1.0)
        assert ctrl.try_admit(1.0).retry_after == pytest.approx(0.3)


class TestServiceMetrics:
    def test_snapshot_counts_and_layout(self):
        m = ServiceMetrics(clock=FakeClock())
        m.admit("interactive")
        m.admit("interactive", attempt=2)
        m.reject("batch", "client-quota")
        m.job_started("interactive", wait_s=0.004, busy=1, slots=2)
        m.job_finished("interactive", "compress", ok=True, run_s=0.1, codec="qoz")
        m.job_finished("interactive", "compress", ok=False, run_s=None, codec="qoz")
        m.connection_opened()
        m.connection_closed()
        s = m.snapshot()
        assert s["stats_version"] == 3
        assert s["admitted_interactive"] == 2
        assert s["retried_interactive"] == 1
        assert s["rejected_batch"] == 1
        assert s["rejects_client_quota"] == 1
        assert s["completed_interactive"] == 1
        assert s["failed_interactive"] == 1
        assert s["jobs_codec_qoz"] == 2
        assert s["batch_fill_ewma"] == pytest.approx(0.5)
        assert s["queue_wait_ms_interactive"] == pytest.approx(4.0)
        # a job that never started has no run time
        assert s["run_count_interactive"] == 1
        assert s["run_ms_interactive"] == pytest.approx(100.0)
        assert s["connections_total"] == 1 and s["connections_open"] == 0
        assert not any(k.startswith("throughput_") for k in s)
        # the wire frame is a typed kv map: every value must be int/float
        assert all(isinstance(v, (int, float)) for v in s.values())

    def test_percentiles_are_bucket_upper_edges(self):
        m = ServiceMetrics(clock=FakeClock())
        waits_ms = [0.5] * 50 + [3.0] * 40 + [40.0] * 9 + [1e6]
        for ms in waits_ms:
            m.job_started("batch", wait_s=ms / 1e3, busy=1, slots=1)
        s = m.snapshot()

        def edge(ms):
            return min(e for e in HIST_EDGES_MS if e >= ms)

        assert s["queue_wait_p50_ms_batch"] == edge(0.5)
        assert s["queue_wait_p90_ms_batch"] == edge(3.0)
        assert s["queue_wait_p99_ms_batch"] == edge(40.0)
        assert s["queue_wait_count_batch"] == 100
        assert s["queue_wait_ms_batch"] == pytest.approx(sum(waits_ms) / 100)
        # the 1000 s sample sits in the overflow bucket
        assert s[f"queue_wait_b{len(HIST_EDGES_MS)}_batch"] == 1
        assert s["queue_wait_p50_ms_interactive"] == 0.0  # no samples

    def test_stats_line_renders_any_snapshot(self):
        m = ServiceMetrics(clock=FakeClock())
        line = format_stats_line(m.snapshot())
        assert line.startswith("repro service stats:")
        assert "admit=0" in line and "reject=0" in line
        assert "run_interactive=0/0ms" in line

"""Deadline faults: queued shed, running timeout, malformed deadlines.

Lifecycle under test (DESIGN.md §12): ``deadline_ms`` is an absolute
budget per request — still queued past it means the job is shed before
dispatch (stage ``queued``); dispatched but not finished means the
server cancels the work and releases its admission units (stage
``running``).  Either way the caller gets a one-line typed error, and
the miss is counted per priority class in the stats surface.
"""

import time

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, ProtocolError
from repro.service import ServiceClient, ServiceConfig
from repro.service.admission import ServiceMetrics
from repro.service.protocol import (
    CompressRequest,
    decode_request,
    encode_request,
    validate_deadline_ms,
)


def smooth2d(shape=(32, 32), seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    return (x / np.abs(x).max()).astype(np.float32)


class TestLifecycle:
    def test_queued_job_past_deadline_is_shed(self):
        with ServiceClient(ServiceConfig(processes=1)) as svc:
            with pytest.raises(DeadlineExceededError) as err:
                svc.compress(
                    smooth2d(), codec="qoz", rel_error_bound=1e-3,
                    deadline_ms=1e-4,
                )
            assert err.value.stage == "queued"
            stats = svc.stats()
            assert stats["deadline_shed_interactive"] >= 1
            assert stats["deadline_timeout_interactive"] == 0

    def test_running_job_past_deadline_is_cancelled(self, monkeypatch):
        from repro.chunked.api import CompressJob

        real = CompressJob.compress_to

        def slow_compress(*args, **kwargs):
            time.sleep(1.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(CompressJob, "compress_to", slow_compress)
        with ServiceClient(ServiceConfig(processes=1)) as svc:
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError) as err:
                svc.compress(
                    smooth2d(seed=1), codec="qoz", rel_error_bound=1e-3,
                    deadline_ms=80.0,
                )
            assert err.value.stage == "running"
            # the caller got the error at the deadline, not after the
            # full (slow) compression ran its course
            assert time.monotonic() - started < 1.0
            assert svc.stats()["deadline_timeout_interactive"] >= 1

            # the service survives the timeout: later requests complete
            blob = svc.compress(
                smooth2d(seed=2), codec="qoz", rel_error_bound=1e-3
            )
            assert isinstance(blob, bytes)

    def test_a_job_past_its_deadline_keeps_its_slot_until_its_call_ends(
        self, monkeypatch
    ):
        """The thread call of a timed-out compress cannot be stopped: the
        next job waits it out in the queue, not in its run time, so it
        still finds a thread of its own when it starts."""
        from repro.chunked.api import CompressJob

        real = CompressJob.compress_to
        calls = []

        def first_one_slow(*args, **kwargs):
            if not calls:
                calls.append(time.monotonic())
                time.sleep(0.6)
            return real(*args, **kwargs)

        monkeypatch.setattr(CompressJob, "compress_to", first_one_slow)
        with ServiceClient(ServiceConfig(processes=1)) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.compress(
                    smooth2d(seed=6), codec="qoz", rel_error_bound=1e-3,
                    deadline_ms=80.0,
                )
            blob = svc.compress(
                smooth2d(seed=7), codec="qoz", rel_error_bound=1e-3,
                deadline_ms=5000.0,
            )
            assert isinstance(blob, bytes)
            stats = svc.stats()
        assert stats["deadline_timeout_interactive"] == 1
        assert stats["queue_wait_sum_us_interactive"] > 300_000
        assert stats["run_sum_us_interactive"] < 400_000

    def test_deadline_far_in_the_future_is_inert(self):
        with ServiceClient(ServiceConfig(processes=1)) as svc:
            blob = svc.compress(
                smooth2d(seed=3), codec="qoz", rel_error_bound=1e-3,
                deadline_ms=600_000.0,
            )
            assert isinstance(blob, bytes)
            stats = svc.stats()
            assert stats["deadline_shed_interactive"] == 0
            assert stats["deadline_timeout_interactive"] == 0


class TestValidationAndWire:
    @pytest.mark.parametrize("bad", [0, -5.0, float("inf"), float("nan"), "x"])
    def test_malformed_deadlines_are_rejected(self, bad):
        with pytest.raises(ProtocolError):
            validate_deadline_ms(bad)

    def test_deadline_rides_the_v2_meta_channel(self):
        req = CompressRequest(
            data=smooth2d(seed=4), error_bound=0.5, deadline_ms=250.0
        )
        decoded = decode_request(encode_request(req))
        assert isinstance(decoded, CompressRequest)
        assert decoded.deadline_ms == 250.0

    def test_absent_deadline_stays_absent(self):
        req = CompressRequest(data=smooth2d(seed=5), error_bound=0.5)
        decoded = decode_request(encode_request(req))
        assert decoded.deadline_ms is None


class TestStatsSurface:
    def test_pool_events_flow_into_snapshot(self):
        metrics = ServiceMetrics()
        for kind in ("crash", "retry", "respawn", "crash", "poisoned"):
            metrics.pool_event(kind)
        snap = metrics.snapshot()
        assert snap["pool_crash"] == 2
        assert snap["pool_retry"] == 1
        assert snap["pool_respawn"] == 1
        assert snap["pool_poisoned"] == 1

    def test_service_stats_expose_pool_health(self):
        # the pool's health is its event counts; the serial lane's mode,
        # generation and crash streak went with it (absent = 0)
        with ServiceClient(ServiceConfig(processes=1)) as svc:
            stats = svc.stats()
        assert not [key for key in stats if key.startswith("pool_")]

"""``processes=`` covers the derive: pooled tuning trials, same decisions.

A chunked call that fans out lends the kept pool to ``tune_parameters``
for its first-round trial compressions (DESIGN.md §7).  The workers run
the serial path's evaluator on the same stack, so the plan, the tuner's
counters and every byte must be what the serial derive produces — and
the trial slab, like every slab, must be gone on every way out.
"""

import hashlib
import io
import json
import math
import multiprocessing
import os
import pathlib
import signal
import threading
import time

import numpy as np
import pytest

import repro
from repro.chunked.api import CompressJob
from repro.core.qoz import FAN_OUT_MIN_POINTS, QoZ
from repro.core.selection import SelectionResult
from repro.core.tuning import (
    ALPHA_CANDIDATES,
    BETA_CANDIDATES,
    level_error_bounds,
    score_bound_vectors,
    tune_parameters,
)
from repro.datasets import get_dataset
from repro.parallel import (
    active_slab_names,
    compress_fields_parallel,
    executor,
    shutdown_pool,
)
from repro.parallel.executor import kept_pool
from repro.utils import ErrorBound, admit_bound

PINNED = json.loads(
    (pathlib.Path(__file__).parent.parent / "data" / "derive_decisions.json")
    .read_text()
)
REL = 1e-3
METRICS = ("cr", "psnr", "ssim", "ac")
JOIN_S = 60.0


@pytest.fixture(autouse=True)
def nothing_left_behind():
    yield
    assert active_slab_names() == []
    assert executor._kept is None or executor._kept.borrowers == 0


def derive(data, metric, fan_out=None):
    """``(plan, tuning outcome)`` of one QoZ derive, admitted as
    ``QoZ.compress`` admits it."""
    eb, vrange = admit_bound(data, None, REL)
    plan, (_selection, tuning) = QoZ(metric=metric)._derive(
        data, eb, vrange, fan_out
    )
    return plan, tuning


def counters(tuning):
    return (
        tuning.alpha, tuning.beta, tuning.trials,
        tuning.trial_compressions, tuning.cache_hits, tuning.extra_trials,
    )


class TestSameDecisions:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_pooled_derive_is_the_serial_and_the_pinned_one(self, metric, dtype):
        data = get_dataset("hurricane", shape=(24, 64, 64), seed=0).astype(dtype)
        serial_plan, serial = derive(data, metric)
        with kept_pool(2) as pool:
            plan, pooled = derive(data, metric, pool.map_stack)
        assert plan == serial_plan
        assert counters(pooled) == counters(serial)
        pinned = PINNED[f"hurricane-24x64x64-{dtype}-{metric}"]
        assert (plan.alpha, plan.beta) == (pinned["alpha"], pinned["beta"])
        assert {
            str(level): list(choice)
            for level, choice in sorted(plan.interpolators.items())
        } == pinned["interpolators"]
        for name in ("trial_compressions", "cache_hits", "extra_trials"):
            assert getattr(pooled, name) == pinned[name], name
        blob = QoZ(metric=metric).compress_with_plan(data, plan)
        assert hashlib.blake2s(blob).hexdigest() == pinned["stream_blake2s"]

    @pytest.mark.parametrize(
        "name,shape,chunks,stack,fans_out",
        [
            ("cesm", (512, 512), 64, (9, 64, 64), True),
            ("nyx", (32, 32, 64), 32, (1, 32, 32, 32), True),
            ("cesm", (256, 256), 64, (4, 64, 64), False),
            ("nyx", (8, 64, 64), 32, (4, 8, 8, 8), False),
        ],
        ids=["2d", "one-block-stack", "small-2d-stack", "small-3d-stack"],
    )
    def test_small_stacks_give_the_same_bytes_and_tiny_ones_stay_inline(
        self, name, shape, chunks, stack, fans_out
    ):
        # below FAN_OUT_MIN_POINTS shipping the trials costs more than
        # running them (EXPERIMENTS.md §14)
        data = get_dataset(name, shape=shape, seed=0).astype(np.float32)
        assert (math.prod(stack) >= FAN_OUT_MIN_POINTS) == fans_out
        lent = []

        def spy(fn, blocks, items, *spec):
            lent.append((fn.__name__, blocks.shape))
            return fn(blocks, items, *spec)

        serial_plan, serial = derive(data, "cr")
        plan, tuning = derive(data, "cr", spy)
        assert plan == serial_plan and counters(tuning) == counters(serial)
        assert lent == fans_out * [
            ("score_level_candidates", stack), ("score_bound_vectors", stack)
        ]
        call = dict(codec="qoz", chunks=chunks, bound=("rel", REL))
        assert repro.compress(data, processes=2, **call) == repro.compress(
            data, chunked=True, **call
        )

    # 'ac' fans out like the rest since its score stopped going through BLAS
    @pytest.mark.parametrize("metric", ["psnr", "ac"])
    def test_runner_sees_each_first_round_vector_once_in_candidate_order(
        self, metric
    ):
        blocks = get_dataset("nyx", shape=(2, 16, 16, 16), seed=0)
        selection = SelectionResult({1: (1, 0)}, {})
        seen = []

        def spy(fn, stack, vectors, *spec):
            assert fn is score_bound_vectors
            seen.append(list(vectors))
            return fn(stack, vectors, *spec)

        serial = tune_parameters(blocks, 1e-2, selection, 4, metric=metric)
        spied = tune_parameters(
            blocks, 1e-2, selection, 4, metric=metric, fan_out=spy
        )
        assert counters(spied) == counters(serial)
        (vectors,) = seen
        in_candidate_order = [
            tuple(level_error_bounds(1e-2, alpha, beta, 4).values())
            for alpha in ALPHA_CANDIDATES
            for beta in BETA_CANDIDATES
        ]
        assert vectors == list(dict.fromkeys(in_candidate_order))
        assert len(vectors) < len(in_candidate_order)  # the memo's keys


class TestOneChunkJobOnOneWorker:
    """The service's one-chunk job runs whole on one worker, its derive
    included when owed (``CompressJob.submit_whole``): the plan is the
    serial derive's, and the container the library's."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_its_plan_is_the_serial_one(self, metric, dtype):
        data = get_dataset("hurricane", shape=(24, 64, 64), seed=0).astype(dtype)
        call = dict(codec="qoz", codec_kwargs={"metric": metric})
        job = CompressJob(data, chunks=None, bound=ErrorBound("rel", REL), **call)
        with kept_pool(2) as pool:
            plan, container = job.submit_whole(pool).result(timeout=JOIN_S)
        assert plan == job.derive()
        assert container == repro.compress(
            data, chunked=True, bound=("rel", REL), **call
        )


class TestWorkersDeriveInline:
    """A worker that derives for itself takes the inline runner: forked
    workers start without a kept pool and must not build one."""

    @staticmethod
    def worker_pids():
        return [p.pid for p in multiprocessing.active_children()]

    def test_per_chunk_tuning_in_workers_builds_no_pool(self, live_children):
        data = get_dataset("nyx", shape=(32, 32, 64), seed=0).astype(np.float32)
        call = dict(
            codec="qoz", chunks=32, bound=("rel", REL), per_chunk_tuning=True
        )
        assert repro.compress(data, processes=2, **call) == repro.compress(
            data, chunked=True, **call
        )
        assert [live_children(w) for w in self.worker_pids()] == [[], []]

    def test_field_jobs_in_workers_build_no_pool(self, live_children):
        fields = [
            get_dataset(n, shape=(32, 32, 32), seed=0) for n in ("nyx", "miranda")
        ]
        call = dict(codec_name="qoz", bound=("rel", REL))
        assert compress_fields_parallel(
            fields, processes=2, **call
        ) == compress_fields_parallel(fields, processes=1, **call)
        assert [live_children(w) for w in self.worker_pids()] == [[], []]


class TestFaults:
    DATA = get_dataset("nyx", shape=(64, 64, 64), seed=0).astype(np.float32)

    @pytest.mark.chaos
    def test_worker_killed_mid_trial_batch_is_redispatched(self):
        shutdown_pool()
        before = {p.pid for p in multiprocessing.active_children()}
        expected = derive(self.DATA, "psnr")
        events = []
        with kept_pool(2) as pool:
            pool._submit(abs, 0).result()  # fork the workers
            hears, pool._on_event = pool._on_event, events.append
            victim = min(
                {p.pid for p in multiprocessing.active_children()} - before
            )

            def kill_once_the_stack_is_out():
                deadline = time.monotonic() + JOIN_S
                while not active_slab_names() and time.monotonic() < deadline:
                    time.sleep(0.0005)
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(target=kill_once_the_stack_is_out)
            killer.start()
            try:
                plan, tuning = derive(self.DATA, "psnr", pool.map_stack)
            finally:
                killer.join(JOIN_S)
            assert not killer.is_alive()
            assert active_slab_names() == []
            deadline = time.monotonic() + JOIN_S  # a death is seen apart
            while "crash" not in events and time.monotonic() < deadline:
                time.sleep(0.01)
            pool._on_event = hears
            assert "crash" in events
        assert plan == expected[0]
        assert counters(tuning) == counters(expected[1])
        assert executor._kept.borrowers == 0

    def test_a_failing_trial_raises_what_the_serial_path_raises(self):
        blocks = np.asarray(self.DATA[:32, :32, :32], np.float64)[None]
        unknown = SelectionResult({1: (9, 0)}, {})
        with pytest.raises(ValueError, match="unknown interpolation method"):
            tune_parameters(blocks, 1e-2, unknown, 5)
        with kept_pool(2) as pool:
            with pytest.raises(ValueError, match="unknown interpolation method"):
                tune_parameters(
                    blocks, 1e-2, unknown, 5, fan_out=pool.map_stack
                )
            # at once, not when the other share finishes
            assert active_slab_names() == []

    def test_writer_that_raises_after_a_pooled_derive_releases_everything(self):
        class Full(io.BytesIO):
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes > 3:  # header, index, first chunk
                    raise OSError("disk full")
                return super().write(data)

        call = dict(codec="qoz", chunks=32, bound=("rel", REL))
        for _ in range(2):
            with pytest.raises(OSError, match="disk full"):
                repro.compress(self.DATA, file=Full(), processes=2, **call)
            assert active_slab_names() == []
            assert executor._kept.borrowers == 0
        assert repro.compress(
            self.DATA, bound=f"rel:{REL}", chunks=32, processes=2
        ) == repro.compress(self.DATA, chunked=True, **call)

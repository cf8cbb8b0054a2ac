"""Crash slab-backed batch jobs every way we can; assert zero shm leaks.

The slab ownership contract (DESIGN.md §13): the side that calls
``Slab.create`` — in ``src/`` that is only ``ChunkWorkPool`` — releases
it, exactly once, on *every* exit path — normal drain, worker crash +
heal, poison, abandoned generator, cancelled service job, interpreter
exit — and workers only ever attach/detach.  Leaks are observable from
the outside: a leaked slab is a ``repro-slab-*`` file in ``/dev/shm``
that outlives the run.  Every test here induces a failure and then
checks both the in-process ledger (``active_slab_names``) and the
filesystem.

Worker kills reuse the pool-healing conventions of
``test_pool_healing.py``: fork context (the crashing test codec below is
registered in this module and must be inherited), MAIN_PID guard so a
job that ran in the calling process could not kill pytest itself.
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

import repro
from repro.chunked import ChunkedFile
from repro.compressors.base import Compressor, register
from repro.errors import DeadlineExceededError, WorkerCrashError
from repro.parallel.executor import ChunkWorkPool
from repro.parallel.slab import SLAB_NAME_PREFIX, Slab, active_slab_names
from repro.service import ServiceClient, ServiceConfig

MAIN_PID = os.getpid()
FORK_CTX = multiprocessing.get_context("fork")
SHM_DIR = pathlib.Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="no /dev/shm to observe leaks in"
)


def shm_slabs():
    """Names of every repro slab currently backing files in /dev/shm."""
    return sorted(p.name for p in SHM_DIR.glob(f"{SLAB_NAME_PREFIX}-*"))


def wait_for_releases(seconds):
    """For the two tests that knowingly get ahead of a release: a slab is
    dropped in its future's done-callback, which ``Future.set_result``
    runs only after it has woken the waiter."""
    deadline = time.monotonic() + seconds
    while (active_slab_names() or shm_slabs()) and time.monotonic() < deadline:
        time.sleep(0.01)


def assert_no_leaks():
    assert active_slab_names() == []
    assert shm_slabs() == []


@register
class CrashyCodec(Compressor):
    """Test codec that SIGKILLs its hosting worker process.

    ``marker=`` makes the kill one-shot (the marker file records that a
    first attempt died, so the retried dispatch completes) — a transient
    worker death.  Without it every process-pool attempt dies — a poison
    job.  On the caller's pid (pytest itself) the kill is skipped.
    """

    name = "crashy"
    codec_id = 200

    def __init__(self, marker=None):
        self.marker = marker

    def _compress(self, data, eb):
        if os.getpid() != MAIN_PID:
            if self.marker is None:
                os.kill(os.getpid(), signal.SIGKILL)
            elif not os.path.exists(self.marker):
                pathlib.Path(self.marker).touch()
                os.kill(os.getpid(), signal.SIGKILL)
        return data.astype(np.float64).tobytes()

    def _decompress(self, payload, header):
        flat = np.frombuffer(payload, dtype=np.float64)
        return flat.reshape(header.shape)


def chunk_arrays(n=4, shape=(16, 16)):
    return [
        np.full(shape, i, dtype=np.float32) + np.float32(0.25)
        for i in range(n)
    ]


def make_pool(events, **kwargs):
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("mp_context", FORK_CTX)
    return ChunkWorkPool(on_event=events.append, **kwargs)


def batch_descriptors(arrays):
    slab = Slab.create(sum(a.nbytes for a in arrays))
    return slab, slab.pack(arrays)


class TestPoolCrashPaths:
    def test_transient_worker_death_batch_retries_same_slab(
        self, tmp_path, pool_events
    ):
        """Heal/retry re-dispatches the same descriptors and succeeds."""
        arrays = chunk_arrays()
        slab, descs = batch_descriptors(arrays)
        pool = make_pool(pool_events)
        try:
            fut = pool.submit_compress_batch(
                "crashy",
                {"marker": str(tmp_path / "died-once")},
                slab.name,
                descs,
                error_bound=1e-3,
            )
            blobs = fut.result(timeout=120)
        finally:
            slab.release()
            pool.shutdown()
        assert "crash" in pool_events and "retry" in pool_events
        codec = CrashyCodec()
        for arr, blob in zip(arrays, blobs):
            np.testing.assert_array_equal(codec.decompress(blob), arr)
        assert_no_leaks()

    def test_poisoned_batch_job_still_releases_slab(self, pool_events):
        arrays = chunk_arrays()
        slab, descs = batch_descriptors(arrays)
        pool = make_pool(pool_events)
        try:
            fut = pool.submit_compress_batch(
                "crashy", {}, slab.name, descs, error_bound=1e-3
            )
            with pytest.raises(WorkerCrashError, match="poisoned"):
                fut.result(timeout=120)
        finally:
            slab.release()
            pool.shutdown()
        assert pool_events.count("poisoned") == 1
        assert_no_leaks()


def sum_on_worker(array, offset):
    """Array-job function: where it ran, and what it read."""
    return os.getpid(), float(array.sum()) + offset


def refuse_on_worker(array):
    raise ValueError(f"refused a {array.shape} array")


class TestArrayJobs:
    """``ChunkWorkPool.submit_array``: one function on one slab-resident
    array, on a worker; the slab goes with the future, however it ends."""

    def test_the_function_runs_on_a_worker_and_the_slab_goes(self, pool_events):
        array = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        pool = make_pool(pool_events)
        try:
            pid, total = pool.submit_array(sum_on_worker, array, 0.5).result(
                timeout=120
            )
        finally:
            pool.shutdown()
        assert pid != MAIN_PID
        assert total == float(array.sum()) + 0.5
        wait_for_releases(2)
        assert_no_leaks()

    def test_an_error_in_the_function_still_releases_the_slab(self, pool_events):
        pool = make_pool(pool_events)
        try:
            future = pool.submit_array(refuse_on_worker, np.ones((4, 4)))
            with pytest.raises(ValueError, match=r"refused a \(4, 4\) array"):
                future.result(timeout=120)
        finally:
            pool.shutdown()
        assert "crash" not in pool_events  # an error is not a worker death
        wait_for_releases(2)
        assert_no_leaks()

    def test_a_submit_that_raises_releases_the_slab_at_once(self):
        from repro.parallel.executor import _on_slab

        def refuse(name, descriptors):
            assert name in active_slab_names() and len(descriptors) == 2
            raise RuntimeError("pool shut down")

        with pytest.raises(RuntimeError, match="shut down"):
            _on_slab([np.ones(8), np.zeros((2, 2))], refuse)
        assert_no_leaks()


class TestStreamingAbandon:
    def test_closing_the_generator_releases_in_flight_slabs(self):
        """A consumer that walks away mid-stream leaks nothing."""
        jobs = ((i, arr) for i, arr in enumerate(chunk_arrays(n=12)))
        pool = ChunkWorkPool(2)
        try:
            gen = pool.compress_stream(jobs, "qoz", None, 1e-3)
            got = next(gen)  # at least one batch is in flight now
            assert isinstance(got[1], bytes)
            gen.close()  # GeneratorExit: pending batches are cancelled
            assert active_slab_names() == []
        finally:
            pool.shutdown()
        assert_no_leaks()


def smooth3d(n=32, seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal((n, n, n)), axis=0)
    return (x / np.abs(x).max()).astype(np.float32)


class TestLibraryPooledPath:
    def test_one_worker_sigkill_heals_to_the_serial_bytes(self, tmp_path):
        """``processes=2`` rides the self-healing pool: a worker dying
        mid-container costs a retry, not the call — same bytes as the
        in-process path, nothing left in /dev/shm."""
        data = smooth3d(16)
        marker = tmp_path / "died-once"
        kwargs = dict(
            codec="crashy", chunks=8, bound=1e-3,
            codec_kwargs={"marker": str(marker)},
        )
        pooled = repro.compress(data, processes=2, **kwargs)
        assert marker.exists(), "no worker ever hit the kill switch"
        assert pooled == repro.compress(data, processes=None, **kwargs)
        # the last batch's release can trail the call's return by a thread
        # switch (tiny chunks; failed 4 runs of 12 at the parent)
        wait_for_releases(2)
        assert_no_leaks()


class TestReadOnAShutDownPool:
    def test_a_read_whose_pool_shuts_down_resolves_and_leaks_nothing(self):
        """A pooled read whose pool shuts down before its shares are in
        resolves — its queued shares were cancelled, the ones on workers
        failed — and its output slab goes with it."""
        blob = repro.compress(
            smooth3d(), codec="qoz", chunks=8, bound="rel:1e-3"
        )
        whole = (slice(None),) * 3
        for _ in range(3):
            pool = ChunkWorkPool(2)
            with ChunkedFile(blob) as f:
                future = f.submit_read(whole, pool)
                pool.shutdown()
            try:
                got = future.result(timeout=10)
            except (CancelledError, WorkerCrashError):
                pass
            else:  # every share was in before the shutdown: not stranded
                np.testing.assert_array_equal(got, repro.decompress(blob))
            wait_for_releases(2)
            assert_no_leaks()


class TestServicePooledPath:
    @pytest.mark.parametrize("chunks", [16, None], ids=["tiled", "one-chunk"])
    def test_pooled_service_matches_the_library_and_leaks_nothing(self, chunks):
        data = smooth3d()
        want = repro.compress(
            data, codec="qoz", chunks=chunks, bound="rel:1e-3", chunked=True
        )
        slab = (slice(3, 29), slice(None), slice(10, 20))
        with ServiceClient(ServiceConfig(processes=2)) as svc:
            blob = svc.compress(
                data, codec="qoz", chunks=chunks, bound="rel:1e-3"
            )
            assert blob == want
            np.testing.assert_array_equal(
                svc.decompress(blob), repro.decompress(want)
            )
            np.testing.assert_array_equal(
                svc.read(blob, slab), repro.decompress(want)[slab]
            )
            assert_no_leaks()

    def test_a_worker_killed_in_a_one_chunk_job_heals_to_the_same_bytes(
        self, tmp_path
    ):
        """The whole one-chunk job rides the self-healing pool: its worker
        dying costs a retry of the same slab, not the request."""
        data = smooth3d(16)
        marker = tmp_path / "died-once"
        kwargs = dict(
            codec="crashy", bound=1e-3,
            codec_kwargs={"marker": str(marker)},
        )
        with ServiceClient(ServiceConfig(processes=2)) as svc:
            blob = svc.compress(data, **kwargs)
            assert svc.stats()["pool_retry"] == 1
        assert marker.exists()
        assert blob == repro.compress(data, chunked=True, **kwargs)
        wait_for_releases(2)
        assert_no_leaks()

    @pytest.mark.parametrize(
        "processes,chunks", [(1, 16), (2, 16), (2, None)],
        ids=["in-process", "pooled-tiled", "pooled-one-chunk"],
    )
    def test_deadline_while_running_releases_slab_and_units(
        self, monkeypatch, processes, chunks
    ):
        """A job cancelled mid-run frees its slot and its admission place,
        and with a pool it must not strand the slabs still being filled
        on the thread executor: the fill's result is a pool future that
        owns its slab, cancelled as soon as it exists.
        """
        from repro.chunked.api import CompressJob

        data = smooth3d(seed=1)
        request = dict(codec="qoz", chunks=chunks, bound="rel:1e-3")
        # the blocking step of each route, on the serving side
        owner, step = (Slab, "pack") if processes == 2 else (CompressJob, "compress_to")
        with ServiceClient(ServiceConfig(processes=processes)) as svc:
            svc.compress(data, **request)  # warm the plan: prepare is fast
            real = getattr(owner, step)

            def slow(*args, **kwargs):
                time.sleep(0.4)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, step, slow)
            with pytest.raises(DeadlineExceededError) as err:
                svc.compress(data, deadline_ms=100.0, **request)
            assert err.value.stage == "running"
            stats = svc.stats()
            assert stats["deadline_timeout_interactive"] == 1
            assert stats["admission_jobs"] == 0
            monkeypatch.undo()
            # the slot is free again: the next request is served
            assert svc.compress(data, **request) == repro.compress(
                data, chunked=True, **request
            )
            wait_for_releases(10)  # the abandoned fills finish, then drop
            assert_no_leaks()


class TestInterpreterExit:
    def _run_child(self, body, subprocess_env, expect_kill=False):
        """Run ``body`` in a fresh interpreter; return (names, proc)."""
        script = (
            "import sys\n"
            "from repro.parallel.slab import Slab\n"
            + body
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=subprocess_env,
            stdout=subprocess.PIPE,
            text=True,
        )
        names = proc.stdout.readline().split()
        assert names, "child never created its slabs"
        return names, proc

    def test_atexit_purges_unreleased_slabs(self, subprocess_env):
        """A process that exits without releasing leaks nothing."""
        names, proc = self._run_child(
            "slabs = [Slab.create(4096) for _ in range(3)]\n"
            "print(' '.join(s.name for s in slabs), flush=True)\n"
            "sys.exit(0)\n",  # no release(): the atexit hook must purge
            subprocess_env,
        )
        proc.wait(timeout=60)
        for name in names:
            assert not (SHM_DIR / name).exists(), f"{name} leaked past exit"

    def test_sigkilled_owner_is_reaped_by_the_resource_tracker(
        self, subprocess_env
    ):
        """Even SIGKILL (no atexit) leaves nothing: the tracker unlinks.

        This is why worker attaches never unregister the segment — the
        owner's single resource-tracker registration is the crash net.
        """
        names, proc = self._run_child(
            "import time\n"
            "slab = Slab.create(4096)\n"
            "print(slab.name, flush=True)\n"
            "time.sleep(300)\n",
            subprocess_env,
        )
        assert (SHM_DIR / names[0]).exists()
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
        deadline = time.monotonic() + 30
        while (SHM_DIR / names[0]).exists():
            assert time.monotonic() < deadline, (
                f"{names[0]} still in /dev/shm 30s after owner SIGKILL"
            )
            time.sleep(0.2)

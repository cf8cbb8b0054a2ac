"""Lifecycle of the kept worker pool behind every ``processes=`` call.

One pool per process (DESIGN.md §7): forked by the first pooled call,
shared by every later one and by every thread, replaced when the worker
count or the codec registry changes, forgotten in forked children, gone
at interpreter exit.  The contracts a per-call pool gave for free by
tearing itself down — no slab and no worker left behind by a call that
fails, a dead worker healed (§12-13) — are shown here on the kept one.
"""

import io
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.compressors import base
from repro.compressors.sz3 import SZ3
from repro.datasets import get_dataset
from repro.parallel import (
    ChunkWorkPool,
    active_slab_names,
    compress_fields_parallel,
    decompress_blobs_parallel,
    executor,
    shutdown_pool,
)
from repro.parallel.executor import kept_pool
from repro.parallel.slab import SLAB_NAME_PREFIX

SHM_DIR = pathlib.Path("/dev/shm")
FIELD = get_dataset("nyx", shape=(32, 32, 32)).astype(np.float32)
JOIN_S = 60.0


def compress(processes=2, codec="sz3", chunks=16, data=FIELD):
    return repro.compress(
        data, codec=codec, chunks=chunks, bound="rel:1e-3",
        processes=processes,
    )


@pytest.fixture(scope="module")
def serial():
    return compress(processes=None)


def shm_slabs(pid="*"):
    return sorted(p.name for p in SHM_DIR.glob(f"{SLAB_NAME_PREFIX}-{pid}-*"))


def worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def gone(pid):
    return not os.path.exists(f"/proc/{pid}")


@pytest.fixture(autouse=True)
def fresh_registry():
    """Every test starts without a kept pool and must leave no slab."""
    shutdown_pool()
    before = worker_pids()
    yield before
    shutdown_pool()
    assert worker_pids() <= before
    assert active_slab_names() == []
    assert shm_slabs(os.getpid()) == []


class TestOnePoolPerProcess:
    def test_two_calls_run_on_the_same_workers(self, fresh_registry, serial):
        assert compress() == serial
        first = worker_pids() - fresh_registry
        assert len(first) == 2
        blob = compress()
        np.testing.assert_array_equal(
            repro.decompress(blob, processes=2), repro.decompress(serial)
        )
        decompress_blobs_parallel([serial, serial], processes=2)
        assert worker_pids() - fresh_registry == first

    def test_another_worker_count_replaces_the_pool(
        self, fresh_registry, serial
    ):
        compress(processes=2)
        old = worker_pids() - fresh_registry
        assert compress(processes=3) == serial
        new = worker_pids() - fresh_registry
        assert len(new) == 3 and not new & old
        assert all(gone(pid) for pid in old)

    def test_release_stops_the_workers_and_the_next_call_forks_anew(
        self, fresh_registry, serial
    ):
        compress()
        old = worker_pids() - fresh_registry
        shutdown_pool()
        shutdown_pool()  # idempotent
        assert all(gone(pid) for pid in old)
        assert compress() == serial
        assert not (worker_pids() - fresh_registry) & old

    def test_a_codec_registered_later_reaches_freshly_forked_workers(self):
        compress()  # workers forked without the codec below

        class LateCodec(SZ3):
            name = "late-sz3"
            codec_id = 201

        base.register(LateCodec)
        try:
            blob = compress(codec="late-sz3")
            np.testing.assert_array_equal(
                repro.decompress(blob, processes=2),
                repro.decompress(blob),
            )
        finally:
            del base._REGISTRY["late-sz3"], base._BY_ID[201]


@pytest.mark.parametrize("processes", [None, 0, 1, -1])
def test_no_door_starts_a_worker_at_most_one_process(
    processes, fresh_registry, serial
):
    # one rule reads processes= everywhere (repro.utils.fans_out): only a
    # value above 1 fans out, so no door forks a pool for 0, None or -1
    with repro.open(serial) as f:
        doors = {
            "compress": lambda: compress(processes=processes),
            "decompress": lambda: repro.decompress(serial, processes=processes),
            "ChunkedFile.read": lambda: f.read(
                (slice(0, 8), slice(None), slice(None)), processes=processes
            ),
            "ChunkedFile.to_array": lambda: f.to_array(processes),
            "compress_fields_parallel": lambda: compress_fields_parallel(
                [FIELD, FIELD], "sz3", bound="rel:1e-3", processes=processes
            ),
            "decompress_blobs_parallel": lambda: decompress_blobs_parallel(
                [serial, serial], processes=processes
            ),
        }
        for door, call in doors.items():
            call()
            assert worker_pids() == fresh_registry, door


EXIT_SCRIPT = """
import multiprocessing, os, sys, time
import numpy as np
import repro, repro.parallel
from repro.datasets import get_dataset

x = get_dataset("nyx", shape=(32, 32, 32)).astype(np.float32)
repro.compress(x, codec="sz3", bound="rel:1e-3", chunks=16, file=sys.argv[1],
               processes=2)
repro.decompress(sys.argv[1], processes=2)
print(os.getpid(), *[p.pid for p in multiprocessing.active_children()])
if sys.argv[2] == "release":
    repro.parallel.shutdown_pool()
print(time.time())
"""


@pytest.mark.parametrize("how", ["release", "return"])
def test_a_process_that_just_returns_exits_clean(tmp_path, subprocess_env, how):
    done = subprocess.run(
        [sys.executable, "-c", EXIT_SCRIPT, str(tmp_path / "f.rpz"), how],
        env=subprocess_env, stdout=subprocess.PIPE, timeout=JOIN_S, check=True,
    )
    exited = time.time()
    pids, last_line = done.stdout.decode().splitlines()
    script_pid, *workers = (int(p) for p in pids.split())
    assert exited - float(last_line) < 5.0
    assert len(workers) == 2 and all(gone(pid) for pid in workers)
    assert shm_slabs(script_pid) == []


SLABLESS_FIRST_SCRIPT = """
import numpy as np
import repro, repro.parallel
from repro.datasets import get_dataset

x = get_dataset("nyx", shape=(32, 32, 32)).astype(np.float32)
# the first pooled call ships no slab: nothing has started the resource
# tracker when the workers fork
repro.parallel.compress_fields_parallel([x, x], "sz3", bound="rel:1e-3",
                                        processes=2)
repro.compress(x, codec="sz3", bound="rel:1e-3", chunks=16, processes=2)
"""


def test_workers_forked_by_a_slabless_call_share_the_owners_tracker(subprocess_env):
    # with a tracker of their own (Python < 3.13 registers an attach) they
    # report the owner's slabs as leaked at exit — and a killed worker's
    # tracker would unlink a slab its owner still ships
    done = subprocess.run(
        [sys.executable, "-c", SLABLESS_FIRST_SCRIPT], env=subprocess_env,
        stderr=subprocess.PIPE, timeout=JOIN_S, check=True,
    )
    assert b"leaked shared_memory" not in done.stderr, done.stderr.decode()


class TestForkedChildren:
    def test_a_forked_child_starts_empty_and_builds_its_own(self, serial):
        compress()
        parent_pool = id(executor._kept)  # no reference: see below
        read_fd, write_fd = os.pipe()
        # forked as if another thread were inside the pool's submit: the
        # child drops the inherited pool with its lock held, and nothing
        # it does afterwards may wait on that lock
        with executor._kept._lock:
            pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            status = b"F"
            try:
                assert executor._kept is None
                assert compress() == serial
                assert id(executor._kept) != parent_pool
                shutdown_pool()
                status = b"K"
            finally:
                os.write(write_fd, status)
                os._exit(0)
        os.close(write_fd)
        deadline = time.monotonic() + JOIN_S
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child hangs")
            time.sleep(0.02)
        assert os.read(read_fd, 1) == b"K"
        os.close(read_fd)
        assert id(executor._kept) == parent_pool
        assert compress() == serial

    def test_a_process_child_that_never_releases_still_exits(self, serial):
        """multiprocessing joins a child's children before the executor's
        own exit handler runs there; the kept pool has to go first."""
        compress()
        ctx = multiprocessing.get_context("fork")
        results = ctx.SimpleQueue()
        child = ctx.Process(target=lambda: results.put(compress() == serial))
        child.start()
        child.join(JOIN_S)
        alive = child.is_alive()
        if alive:
            subprocess.run(["pkill", "-KILL", "-P", str(child.pid)])
            child.kill()
        assert not alive and child.exitcode == 0
        assert results.get() is True


class TestFailuresLeaveThePoolUsable:
    def test_worker_killed_between_calls_heals_on_the_next(
        self, fresh_registry, serial
    ):
        compress()
        victim = min(worker_pids() - fresh_registry)
        os.kill(victim, signal.SIGKILL)
        assert compress() == serial
        assert victim not in worker_pids()
        np.testing.assert_array_equal(
            repro.decompress(serial, processes=2), repro.decompress(serial)
        )

    @pytest.mark.chaos
    def test_worker_killed_mid_call_heals_within_it(self, fresh_registry):
        data = get_dataset("nyx", shape=(64, 64, 64)).astype(np.float32)
        expected = compress(processes=None, codec="qoz", data=data)
        compress()
        victim = min(worker_pids() - fresh_registry)

        def kill_once_chunks_are_in_flight():
            deadline = time.monotonic() + JOIN_S
            while not active_slab_names() and time.monotonic() < deadline:
                time.sleep(0.001)
            os.kill(victim, signal.SIGKILL)

        killer = threading.Thread(target=kill_once_chunks_are_in_flight)
        killer.start()
        try:
            assert compress(codec="qoz", data=data) == expected
        finally:
            killer.join(JOIN_S)
        assert victim not in worker_pids()
        assert compress(codec="qoz", data=data) == expected

    def test_writer_that_raises_leaves_no_slab(self, serial):
        class Full(io.BytesIO):
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes > 3:  # header, index, first chunk
                    raise OSError("disk full")
                return super().write(data)

        for _ in range(3):
            with pytest.raises(OSError, match="disk full"):
                repro.compress(
                    FIELD, file=Full(), codec="sz3", chunks=8,
                    bound="rel:1e-3", processes=2,
                )
            # at once, not when the abandoned batches finish
            assert active_slab_names() == []
            assert executor._kept.borrowers == 0
        assert compress() == serial

    def test_a_failed_batch_stops_the_jobs_other_batches(self, monkeypatch):
        """One NaN off the sampled corners fails the chunk that holds it:
        the error reaches the caller only with the call's other batches
        cancelled — nothing of it is submitted afterwards, no slab left."""
        from repro.errors import CompressionError

        submits = []
        real = ChunkWorkPool.submit_compress_batch

        def counted(pool, *args, **kwargs):
            submits.append(time.monotonic())
            return real(pool, *args, **kwargs)

        monkeypatch.setattr(ChunkWorkPool, "submit_compress_batch", counted)
        rng = np.random.default_rng(60)
        data = np.cumsum(rng.standard_normal((64, 64, 64)), axis=0)
        data = (data / np.abs(data).max()).astype(np.float32)
        data[12, 20, 44] = np.nan
        with pytest.raises(CompressionError, match="non-finite"):
            repro.compress(
                data, codec="sz3", bound=1e-2, chunks=8, processes=2
            )
        raised = len(submits)
        assert active_slab_names() == []
        time.sleep(0.5)
        assert 0 < len(submits) == raised < 256  # 8^3 chunks in pairs
        assert executor._kept.borrowers == 0

    def test_generator_closed_early_leaves_no_slab(self, serial):
        chunks = [(i, FIELD[i]) for i in range(32)]
        with kept_pool(2) as pool:
            stream = pool.compress_stream(chunks, "sz3", {}, 1e-3)
            next(stream)
            assert active_slab_names() != []
            stream.close()
            assert active_slab_names() == []
        assert compress() == serial


def never_called(stack, items):
    raise AssertionError(f"a share of {items} reached a worker")


def test_a_fan_out_of_no_items_returns_at_once(fresh_registry):
    """``map_stack`` over no items resolves to ``[]`` without a job — a
    gather of nothing must not wait for a result that never comes."""
    out = []
    with kept_pool(2) as pool:
        call = threading.Thread(  # a daemon: a hang must not hold the exit
            target=lambda: out.append(pool.map_stack(never_called, FIELD, [])),
            daemon=True,
        )
        call.start()
        call.join(JOIN_S)
    assert not call.is_alive() and out == [[]]
    assert worker_pids() == fresh_registry  # nothing was submitted


class TestThreads:
    def test_threads_share_the_pool(self, fresh_registry, serial):
        """More callers than cores, eager thread switches: every call gets
        the serial bytes, on one set of workers, and every borrow is
        returned."""
        results, seen = [], set()

        def caller():
            for _ in range(3):
                results.append(compress())
                seen.update(worker_pids() - fresh_registry)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(JOIN_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 12
        assert len(seen) == 2
        assert executor._kept.borrowers == 0

    def test_threads_asking_for_different_counts_do_not_break_each_other(
        self, fresh_registry, serial
    ):
        """The pool a call runs on is never shut down under it: a
        replaced pool is retired by its last borrower."""
        results = []

        def caller(processes):
            for _ in range(4):
                results.append(compress(processes=processes))

        threads = [threading.Thread(target=caller, args=(n,)) for n in (2, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN_S)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 8
        assert len(worker_pids() - fresh_registry) in (2, 3)


@pytest.mark.parametrize(
    "rounds", [10, pytest.param(40, marks=pytest.mark.soak)]
)
def test_second_pool_cold_starts_beside_a_busy_kept_pool(rounds, serial):
    """The service embeds its own ``ChunkWorkPool`` and the suite's replay
    builds one: forking it while the kept pool's threads are running (and
    creating / unlinking slabs) must not hand its workers a held lock."""
    stop = threading.Event()
    busy_results = []

    def keep_busy():
        while not stop.is_set():
            busy_results.append(compress())

    busy = threading.Thread(target=keep_busy)
    busy.start()
    try:
        views = [FIELD[:16], FIELD[16:]]
        expected = [SZ3().compress(v, 1e-3) for v in views]
        for _ in range(rounds):
            second = ChunkWorkPool(2)
            try:
                got = list(second.compress_stream(
                    enumerate(views), "sz3", {}, 1e-3
                ))
            finally:
                second.shutdown()
            assert got == list(enumerate(expected))
    finally:
        stop.set()
        busy.join(JOIN_S)
    assert not busy.is_alive()
    assert busy_results and all(b == serial for b in busy_results)

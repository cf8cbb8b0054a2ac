"""Kill real workers; assert that ChunkWorkPool charges each death to
the one job the dead worker held.

The contract under test (DESIGN.md §12): a worker death reaches EOF on
that worker's own pipe — even halfway through its reply — and is charged
to exactly the job it held.  That job is re-dispatched at its first
death and fails with ``WorkerCrashError`` at its second; every other job
returns its result, and no job ever runs in the calling process.
"""

import json
import multiprocessing
import os
import pathlib
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.errors import WorkerCrashError
from repro.parallel import active_slab_names
from repro.parallel.executor import ChunkWorkPool

#: pid of the pytest process; worker jobs compare against it before
#: doing anything lethal — a regression that ran a job right here would
#: otherwise take pytest down with it
MAIN_PID = os.getpid()

#: explicit start method — these tests fork fresh pools constantly and
#: need workers to inherit the parent's imported modules
FORK_CTX = multiprocessing.get_context("fork")


def ok_job(payload):
    """A job that always succeeds (the control group)."""
    return payload * 2


def kill_worker_job(_payload):
    """SIGKILL the hosting worker — the canonical pool-breaking fault."""
    if os.getpid() != MAIN_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return "ran-in-the-caller"


def kill_worker_once_job(marker_path):
    """SIGKILL the worker on the first run only (marker file = ran before).

    The marker is created *before* the kill, so the retried dispatch of
    the same job sees it and completes — modeling a transient worker
    death (OOM spike) rather than a poison input.
    """
    if os.getpid() != MAIN_PID and not os.path.exists(marker_path):
        pathlib.Path(marker_path).touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return "ok-after-retry"


def nap_then_kill_worker_job(seconds):
    time.sleep(seconds)
    return kill_worker_job(None)


def make_pool(events, **kwargs):
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("mp_context", FORK_CTX)
    return ChunkWorkPool(on_event=events.append, **kwargs)


class TestHealing:
    def test_transient_worker_death_retries_to_success(
        self, tmp_path, pool_events
    ):
        pool = make_pool(pool_events)
        try:
            marker = str(tmp_path / "crashed-once")
            bad = pool._submit(kill_worker_once_job, marker)
            good = [pool._submit(ok_job, i) for i in range(6)]
            assert bad.result(timeout=120) == "ok-after-retry"
            # jobs on the other worker never notice the death
            assert [f.result(timeout=120) for f in good] == [
                i * 2 for i in range(6)
            ]
        finally:
            pool.shutdown()
        assert "crash" in pool_events
        assert "retry" in pool_events
        assert "poisoned" not in pool_events

    def test_poisoned_job_fails_alone_pool_survives(self, pool_events):
        pool = make_pool(pool_events)
        try:
            bad = pool._submit(kill_worker_job, None)
            with pytest.raises(WorkerCrashError, match="poisoned"):
                bad.result(timeout=120)
            # the pool healed: later jobs run on process workers again
            good = [pool._submit(ok_job, i) for i in range(4)]
            assert [f.result(timeout=120) for f in good] == [
                i * 2 for i in range(4)
            ]
        finally:
            pool.shutdown()
        assert pool_events.count("poisoned") == 1
        # two deaths, both its own
        assert pool_events.count("crash") == 2


#: runs in a child interpreter: a regression that runs a killing job in
#: the calling process kills the child, not pytest.  Prints one JSON line.
CHILD = textwrap.dedent("""
    import json, multiprocessing, os, signal, sys, time
    import numpy as np
    from repro.compressors.base import Compressor, get_compressor, register
    from repro.errors import WorkerCrashError
    from repro.parallel.executor import ChunkWorkPool
    from repro.parallel.slab import Slab

    ENTRY, SCENARIO = sys.argv[1], sys.argv[2]

    def kill(*_):
        # every submit and re-dispatch lands before the break: the five
        # jobs are in flight at both
        time.sleep(0.05)
        os.kill(os.getpid(), signal.SIGKILL)

    def nap(value, *_):
        time.sleep(0.3)
        return float(np.asarray(value).ravel()[0])

    def whoami(_):
        return os.getpid()

    @register
    class Napper(Compressor):
        name, codec_id = "napper", 211

        def _compress(self, data, eb):
            time.sleep(0.3)
            return data.astype(np.float64).tobytes()

        def _decompress(self, payload, header):
            return np.frombuffer(payload, np.float64).reshape(header.shape)

    @register
    class Killer(Napper):
        name, codec_id = "killer", 210

        def _compress(self, data, eb):
            kill()

    slabs = []

    def batch(pool, codec, value):
        array = np.full((4, 4), value, np.float32)
        slab = Slab.create(array.nbytes)
        slabs.append(slab)
        future = pool.submit_compress_batch(
            codec, None, slab.name, slab.pack([array]), 1e-3
        )
        return future, lambda streams: float(
            get_compressor("napper").decompress(streams[0])[0, 0]
        )

    def submit(pool, killer, value):
        if ENTRY == "submit":
            return pool._submit(kill if killer else nap, value), float
        if ENTRY == "array":
            array = np.full(4, value, np.float32)
            return pool.submit_array(kill if killer else nap, array), float
        return batch(pool, "killer" if killer else "napper", value)

    def outcome(future, read):
        try:
            return read(future.result(timeout=120))
        except WorkerCrashError:
            return "WorkerCrashError"

    pool = ChunkWorkPool(2, mp_context=multiprocessing.get_context("fork"))
    if SCENARIO == "survives":
        outcomes = [outcome(*submit(pool, True, 0)) for _ in range(4)]
    else:
        jobs = [submit(pool, True, 0)]
        jobs += [submit(pool, False, v) for v in (1, 2, 3, 4)]
        outcomes = [outcome(*job) for job in jobs]
    worker = pool._submit(whoami, None).result(timeout=120)
    pool.shutdown()
    for slab in slabs:
        slab.release()
    print(json.dumps({"outcomes": outcomes, "worker": worker, "pid": os.getpid()}))
""")


def kill_what_is_left(pgid):
    """SIGKILL a process group — a killed child's orphaned pool workers,
    or a hung child — sparing its resource tracker, which unlinks the
    child's slabs once the child is gone."""
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
            cmdline = pathlib.Path(f"/proc/{entry}/cmdline").read_bytes()
            if (
                int(stat.rsplit(")", 1)[1].split()[2]) == pgid
                and b"resource_tracker" not in cmdline
            ):
                os.kill(int(entry), signal.SIGKILL)
        except (OSError, ValueError):
            continue  # gone meanwhile


def run_child(args, env, tmp_path, script=CHILD):
    """Run ``script`` (default :data:`CHILD`) with ``args``; its output goes
    to files, not pipes, because the workers of a child that was killed
    outlive it holding their copies."""
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with out.open("w") as stdout, err.open("w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *args],
            env=env, stdout=stdout, stderr=stderr, start_new_session=True,
        )
    code = None
    try:
        code = proc.wait(timeout=300)
    finally:
        if code != 0:
            kill_what_is_left(proc.pid)
            proc.wait()
    assert code == 0, (
        f"child exited {code} (-9: a killing job ran in the calling "
        f"process)\n{out.read_text()}{err.read_text()}"
    )
    return json.loads(out.read_text().splitlines()[-1])


ENTRIES = ["submit", "compress_batch", "array"]


class TestTheTwoRules:
    """Each rule through ``_submit``, ``submit_compress_batch`` (a codec
    that kills, registered in the child) and ``submit_array``."""

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_the_caller_survives_jobs_that_keep_killing_workers(
        self, entry, subprocess_env, tmp_path
    ):
        report = run_child([entry, "survives"], subprocess_env, tmp_path)
        assert report["outcomes"] == ["WorkerCrashError"] * 4
        # and the pool still runs jobs on worker processes
        assert report["worker"] != report["pid"]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_only_the_killer_fails_its_bystanders_return(
        self, entry, subprocess_env, tmp_path
    ):
        report = run_child([entry, "bystanders"], subprocess_env, tmp_path)
        assert report["outcomes"] == ["WorkerCrashError", 1.0, 2.0, 3.0, 4.0]


#: a worker that dies halfway through its reply: the marked job's reply
#: (the first one that carries MARK, once per marker file) gets its
#: length header and half its frame written, then the worker SIGKILLs
#: itself.  Patched before the pool forks, so every worker inherits it.
#: Prints one JSON line; exits 1 if a future is not back in 10 s.
MID_REPLY_CHILD = textwrap.dedent("""
    import json, multiprocessing, os, signal, struct, sys, time
    from multiprocessing.connection import Connection
    from repro.parallel.executor import ChunkWorkPool

    MARKER, MARK, OWNER = sys.argv[1], b"torn-reply-marker", os.getpid()
    send_bytes = Connection._send_bytes

    def torn(self, buf):
        frame = bytes(buf)
        if os.getpid() != OWNER and MARK in frame and not os.path.exists(MARKER):
            open(MARKER, "w").close()
            self._send(struct.pack("!i", len(frame)) + frame[:len(frame) // 2])
            os.kill(os.getpid(), signal.SIGKILL)
        return send_bytes(self, buf)

    Connection._send_bytes = torn

    def echo(value):
        time.sleep(0.05)
        return value

    events = []
    pool = ChunkWorkPool(
        2, on_event=events.append, mp_context=multiprocessing.get_context("fork")
    )
    start = time.monotonic()
    futures = [pool._submit(echo, MARK if k == 0 else k) for k in range(8)]
    try:
        values = [f.result(timeout=10) for f in futures]
    except Exception as exc:
        print(json.dumps({"error": repr(exc)}), flush=True)
        os._exit(1)  # a wedged pool would hang the exit too
    seconds = time.monotonic() - start
    pool.shutdown()
    print(json.dumps({
        "marked": values[0].decode(), "neighbours": values[1:],
        "events": events, "seconds": seconds,
    }))
""")


def test_a_worker_killed_mid_reply_costs_only_a_retry_of_its_job(
    subprocess_env, tmp_path
):
    """The death reaches EOF on the dead worker's pipe alone: its job is
    re-dispatched and returns, and its seven neighbours return."""
    marker = tmp_path / "torn-once"
    report = run_child(
        [str(marker)], subprocess_env, tmp_path, script=MID_REPLY_CHILD
    )
    assert marker.exists()
    assert report["marked"] == "torn-reply-marker"
    assert report["neighbours"] == list(range(1, 8))
    assert report["events"].count("crash") == 1
    assert report["events"].count("retry") == 1
    assert "poisoned" not in report["events"]
    assert report["seconds"] < 10


class Unpicklable(Exception):
    """An exception that holds a lock, so it does not pickle."""

    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def return_a_lock(_payload):
    return threading.Lock()


def raise_unpicklable(_payload):
    raise Unpicklable()


class TestPicklingFailures:
    """What does not pickle fails its own job with the pickling
    ``TypeError`` — the payload in the caller, a result or an exception
    in the worker — and the pool goes on with the next job."""

    @pytest.mark.parametrize("fn, payload", [
        (ok_job, threading.Lock()),
        (return_a_lock, None),
        (raise_unpicklable, None),
    ], ids=["payload", "result", "exception"])
    def test_only_that_job_fails_typed(self, fn, payload, pool_events):
        pool = make_pool(pool_events)
        try:
            before = pool._submit(ok_job, 1)
            bad = pool._submit(fn, payload)
            with pytest.raises(TypeError, match="pickle"):
                bad.result(timeout=120)
            assert before.result(timeout=120) == 2
            assert pool._submit(ok_job, 2).result(timeout=120) == 4
        finally:
            pool.shutdown()
        assert pool_events == []  # no worker died for it


def tile(array):
    """A 45 KB result: a reply long enough to be written in two parts."""
    return np.full(5625, float(array[0]))


def kill_loop_trial(seed):
    """One trial of the random-kill loop: 3000 array jobs with 45 KB
    results on four forked workers, one random worker SIGKILLed 0.02-0.4 s
    in.  Returns the pool's events; raises if a result is wrong or not
    back within 15 s.  Every slab is released on every way out."""
    rng = random.Random(seed)
    events = []
    pool = ChunkWorkPool(
        4, on_event=events.append, mp_context=multiprocessing.get_context("fork")
    )
    futures = []
    before = {p.pid for p in multiprocessing.active_children()}

    def kill_one():
        time.sleep(rng.uniform(0.02, 0.4))
        deadline = time.monotonic() + 15
        while not (
            workers := {p.pid for p in multiprocessing.active_children()} - before
        ) and time.monotonic() < deadline:
            time.sleep(0.005)
        if workers:  # else the results time out and say so
            os.kill(rng.choice(sorted(workers)), signal.SIGKILL)

    killer = threading.Thread(target=kill_one)
    try:
        killer.start()
        for k in range(3000):
            futures.append(pool.submit_array(tile, np.full(4, k, np.float32)))
        for k, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=15), tile([k]))
    finally:
        killer.join()
        for future in futures:
            future.cancel()  # a late one's slab goes now, not never
        pool.shutdown()
    return events


@pytest.mark.chaos
def test_random_worker_kills_never_hang_the_pool():
    for seed in range(20):
        events = kill_loop_trial(seed)
        assert events.count("crash") <= 1 and "poisoned" not in events, events
        assert active_slab_names() == []


class TestShutdown:
    def test_shutdown_is_idempotent_and_closes_submission(self, pool_events):
        pool = make_pool(pool_events)
        assert pool._submit(ok_job, 1).result(timeout=120) == 2
        pool.shutdown()
        pool.shutdown()  # second call is a no-op, not an error
        with pytest.raises(RuntimeError, match="shut-down"):
            pool._submit(ok_job, 1)

    def test_shutdown_tolerates_a_broken_pool(self, pool_events):
        pool = make_pool(pool_events)
        with pytest.raises(WorkerCrashError):
            pool._submit(kill_worker_job, None).result(timeout=120)
        pool.shutdown()
        pool.shutdown()

    def test_a_worker_death_during_shutdown_resolves_its_job(self, pool_events):
        """The job cannot be re-dispatched on a pool that is shutting
        down — whose workers it stops — so it fails typed instead of
        leaving its caller waiting."""
        pool = make_pool(pool_events)
        future = pool._submit(nap_then_kill_worker_job, 0.5)
        closer = threading.Timer(0.2, pool.shutdown)
        closer.start()
        try:
            with pytest.raises(WorkerCrashError, match="cannot rerun"):
                future.result(timeout=10)
        finally:
            closer.join(30)
            pool.shutdown()
        assert not closer.is_alive()

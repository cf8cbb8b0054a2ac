"""Chaos smoke: SIGKILL a live worker under load; the service must heal.

Opt-in (``pytest -m chaos``, mirroring the soak suite): spawns a real
``repro serve`` subprocess with 4 workers, drives concurrent client
load, kills one worker process mid-stream, and pins the recovery
contract — zero dropped connections, every response byte-identical to
the in-process library path, and the pool's crash/respawn visible
in the stats surface.  Set ``REPRO_CHAOS_STATS`` to a path to dump the
final stats snapshot (the CI job uploads it as an artifact).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.chunked import compress_chunked
from repro.service import RemoteClient

pytestmark = pytest.mark.chaos

N_CLIENTS = 4
N_REQUESTS_EACH = 12
PROCESSES = 4
#: a reply takes well under a second; one that never comes means the
#: kill left the pool wedged, and fails the request instead of hanging it
REQUEST_TIMEOUT_S = 60.0


def smooth3d(shape=(36, 36, 36), seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    return (x / np.abs(x).max()).astype(np.float32)


@pytest.fixture(scope="module")
def subprocess_env():
    src = pathlib.Path(__file__).parent.parent.parent / "src"
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (
        (os.pathsep + existing) if existing else ""
    )
    return env


@pytest.fixture(scope="module")
def server(subprocess_env):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--processes", str(PROCESSES),
        ],
        env=subprocess_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, (line, proc.stderr.read())
        port = int(line.rsplit(":", 1)[1])
        yield proc, port
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            # a wedged server may ignore SIGTERM: kill it, so the run
            # fails instead of hanging
            proc.kill()
            proc.wait(timeout=10)


def worker_pids(server_pid):
    """Direct children of the server that are pool workers (children are
    listed per forking thread, and the pool's first submit is not on the
    main one; the resource tracker is a child too)."""
    return [
        int(pid)
        for task in pathlib.Path(f"/proc/{server_pid}/task").glob("*/children")
        for pid in task.read_text().split()
        if b"resource_tracker"
        not in pathlib.Path(f"/proc/{pid}/cmdline").read_bytes()
    ]


def test_worker_kill_under_load_recovers_byte_identical(server):
    proc, port = server
    server_pid = proc.pid
    data = smooth3d(seed=1)
    expected = compress_chunked(
        data, codec="qoz", rel_error_bound=1e-3, chunks=18
    )

    # force the lazy pool to spawn its workers, then pick a victim
    with RemoteClient(port=port) as warm:
        assert warm.compress(
            data, codec="qoz", rel_error_bound=1e-3, chunks=18
        ) == expected
    deadline = time.monotonic() + 30
    while not worker_pids(server_pid):
        assert time.monotonic() < deadline, "pool workers never appeared"
        time.sleep(0.1)
    victims = worker_pids(server_pid)
    assert len(victims) == PROCESSES

    failures = []
    blobs = []
    started = threading.Barrier(N_CLIENTS + 1)

    def client_load(index):
        try:
            with RemoteClient(
                port=port, retries=10, timeout=REQUEST_TIMEOUT_S
            ) as client:
                started.wait(timeout=60)
                for _ in range(N_REQUESTS_EACH):
                    blobs.append(
                        client.compress(
                            data, codec="qoz",
                            rel_error_bound=1e-3, chunks=18,
                        )
                    )
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append((index, repr(exc)))

    threads = [
        threading.Thread(target=client_load, args=(i,))
        for i in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    started.wait(timeout=60)
    time.sleep(0.2)  # let requests reach the workers
    os.kill(victims[0], signal.SIGKILL)
    for t in threads:
        t.join(timeout=600)
    assert not any(t.is_alive() for t in threads)

    # zero dropped connections, zero failed requests
    assert not failures, failures
    assert len(blobs) == N_CLIENTS * N_REQUESTS_EACH
    # never wrong bytes: every served stream matches the library path
    assert all(blob == expected for blob in blobs)

    # the pool saw the crash and replaced the worker: nothing was poisoned, and
    # no job ran in (and so could kill) the server
    with RemoteClient(port=port) as client:
        deadline = time.monotonic() + 60
        while True:
            stats = client.stats()
            if stats.get("pool_crash", 0) >= 1:
                break
            assert time.monotonic() < deadline, stats
            client.compress(
                data, codec="qoz", rel_error_bound=1e-3, chunks=18
            )
        assert stats.get("pool_respawn", 0) >= 1
        assert stats.get("pool_poisoned", 0) == 0
        assert proc.poll() is None, "the server died"
        # post-recovery service is fully functional and byte-identical
        assert client.compress(
            data, codec="qoz", rel_error_bound=1e-3, chunks=18
        ) == expected

    # slab hygiene (DESIGN.md §13): the kill landed mid-batch, yet every
    # shared-memory slab the server created must be gone once the load
    # drains — release happens on the caller's exit paths, crash included
    shm = pathlib.Path("/dev/shm")
    if shm.is_dir():
        deadline = time.monotonic() + 30
        while True:
            leaked = sorted(p.name for p in shm.glob("repro-slab-*"))
            if not leaked or time.monotonic() >= deadline:
                break
            time.sleep(0.2)
        assert not leaked, f"server leaked shm slabs: {leaked}"

    dump = os.environ.get("REPRO_CHAOS_STATS")
    if dump:
        pathlib.Path(dump).write_text(json.dumps(stats, indent=2) + "\n")

"""End-to-end smoke over real sockets: one server, N concurrent clients.

This is the test the ``service-smoke`` CI job runs: spawn ``python -m
repro serve`` as a subprocess, drive a compress -> hyperslab-read ->
decompress roundtrip through :class:`RemoteClient` from several threads
at once, and pin the served bytes to the in-process
``repro.compress`` / ``ChunkedFile`` path.
"""

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
from repro.chunked import ChunkedFile
from repro.errors import RemoteServiceError
from repro.service import RemoteClient

N_CONNECTIONS = 4
SLAB = (slice(3, 33), slice(None), slice(8, 30))


def smooth3d(shape=(36, 36, 36), seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    return (x / np.abs(x).max()).astype(np.float32)


@pytest.fixture(scope="module", params=[1, 2], ids="processes={}".format)
def processes(request):
    """In-process service, then one whose codec work all runs on two pool
    workers: the same replies either way."""
    return request.param


@pytest.fixture(scope="module")
def server(subprocess_env, processes):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--processes", str(processes),
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
        yield port
    finally:
        proc.terminate()
        proc.wait(timeout=10)


# the fixture above is module-scoped but needs the function-scoped
# subprocess_env fixture; re-export it at module scope
@pytest.fixture(scope="module")
def subprocess_env():
    src = pathlib.Path(__file__).parent.parent.parent / "src"
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (
        (os.pathsep + existing) if existing else ""
    )
    return env


class TestSmoke:
    def test_concurrent_roundtrips_match_inprocess_path(self, server):
        data = smooth3d(seed=1)
        inline = repro.compress(
            data, codec="qoz", bound="rel:1e-3", chunks=18
        )
        with ChunkedFile(inline) as f:
            expected_slab = f.read(SLAB)

        failures = []
        results = []

        def roundtrip(i):
            try:
                with RemoteClient(port=server, retries=10) as client:
                    blob = client.compress(
                        data, codec="qoz", bound="rel:1e-3", chunks=18
                    )
                    slab = client.read(blob, SLAB)
                    recon = client.decompress(blob)
                    results.append((blob, slab, recon))
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((i, repr(exc)))

        threads = [
            threading.Thread(target=roundtrip, args=(i,))
            for i in range(N_CONNECTIONS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not failures, failures
        assert len(results) == N_CONNECTIONS
        for blob, slab, recon in results:
            assert blob == inline  # byte-identical to the library path
            assert np.array_equal(slab, expected_slab)
            assert recon.shape == data.shape
            assert np.abs(
                recon.astype(np.float64) - data.astype(np.float64)
            ).max() <= 1e-3 * float(data.max() - data.min()) + 1e-12

    def test_one_chunk_requests_match_the_library(self, server):
        """The four request kinds at the size where a pool used to do
        nothing: a family-tagged and a content-keyed one-chunk compress,
        a plain-stream decode and a read that touches one chunk."""
        import repro

        data = smooth3d((24, 24, 24), seed=5)
        plain = repro.compress(data, codec="qoz", bound="rel:1e-3")
        tiled = repro.compress(data, codec="qoz", bound="rel:1e-3", chunks=12)
        corner = (slice(0, 10), slice(2, 12), slice(None, 12))
        with RemoteClient(port=server) as client:
            tagged = client.compress(
                data, codec="qoz", bound="rel:1e-3", family="smoke-one-chunk"
            )
            keyed = client.compress(data, codec="qoz", bound="rel:1e-3")
            decoded = client.decompress(plain)
            part = client.read(tiled, corner)
        assert tagged == keyed == repro.compress(
            data, chunked=True, codec="qoz", bound="rel:1e-3"
        )
        assert np.array_equal(decoded, repro.decompress(plain))
        with ChunkedFile(tiled) as f:
            assert np.array_equal(part, f.read(corner))

    def test_plan_cache_is_warm_across_connections(self, server):
        data = smooth3d(seed=3)
        with RemoteClient(port=server) as client:
            client.compress(data, codec="qoz", bound="rel:1e-3", chunks=18)
            before = client.stats()
            client.compress(data, codec="qoz", bound="rel:1e-3", chunks=18)
            after = client.stats()
        # the second identical request is a pure cache hit — no derive
        assert after["plan_derives"] == before["plan_derives"]
        assert after["plan_cache_hits"] == before["plan_cache_hits"] + 1

    def test_remote_errors_are_clean(self, server):
        with RemoteClient(port=server) as client:
            with pytest.raises(RemoteServiceError):
                client.compress(
                    smooth3d(seed=2), codec="no-such-codec", bound=1e-3
                )
            # the connection survives an error response
            client.ping()

    def test_ping_and_stats(self, server, processes):
        with RemoteClient(port=server) as client:
            client.ping()
            stats = client.stats()
            assert stats["processes"] == processes
            assert stats["max_queue"] == 64


@pytest.mark.parametrize("argv", [
    ["serve", "--shards", "2"],
    ["serve", "--admin-port", "9754"],
    ["serve-stats", "--all-shards"],
    ["serve-stats", "--admin-port", "9754"],
    ["serve-stats", "--per-shard"],
])
def test_the_fleet_flags_are_gone(argv, capsys):
    """One serving process: the shard fleet's flags were removed, not
    aliased."""
    from repro.__main__ import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sigterm_stops_a_single_shard_server_and_its_pool_workers(
    subprocess_env, live_children
):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--processes", "2"],
        env=subprocess_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, (line, proc.stderr.read())
        with RemoteClient(port=int(line.rsplit(":", 1)[1])) as client:
            client.compress(
                smooth3d(), codec="qoz", bound="rel:1e-3", chunks=18
            )
        workers = [pid for pid, _cmd in live_children(proc.pid)]
        assert workers, "the request forked no pool worker"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=5) == 0
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()
    deadline = time.monotonic() + 5.0
    while any(os.path.exists(f"/proc/{w}") for w in workers):
        assert time.monotonic() < deadline, "orphaned pool workers"
        time.sleep(0.05)
    assert list(pathlib.Path("/dev/shm").glob(f"repro-slab-{proc.pid}-*")) == []
